package main

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's contract: BENCHMARK.json lists exactly
// these names and units (checked by TestBenchmarkJSONMatchesTables).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the host-time and host-memory figures a user of the lab
// sees, reported by every untraced run of every workload. req_per_s and
// the latencies measure serve's requests; paper and sweep have none, so
// for them the three are wall_s restated per experiment or program.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"req_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
}

// perLayer are the traced run's figures: host time charged to the
// repo's modules, their exact work counts, and the tracing overhead.
// Layers a workload does not exercise report 0. NOTES.md pairs each
// with the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"traced_wall_s", "s"},
	{"experiments.self_s", "s"},
	{"core.self_s", "s"},
	{"core.runs", "count"},
	{"mcc.busy_s", "s"},
	{"mcc.compiles", "count"},
	{"asm.busy_s", "s"},
	{"verify.busy_s", "s"},
	{"verify.images", "count"},
	{"static.busy_s", "s"},
	{"static.images", "count"},
	{"synth.busy_s", "s"},
	{"synth.programs", "count"},
	{"decode.busy_s", "s"},
	{"decode.misses", "count"},
	{"decode.hit_ratio", "1"},
	{"sim.instrs", "count"},
	{"sim.busy_s", "s"},
	{"sim.mips", "Minstr/s"},
	{"memsys.observe_s", "s"},
	{"cache.observe_s", "s"},
	{"cache.runs", "count"},
	{"pipeline.observe_s", "s"},
	{"pipeline.runs", "count"},
	{"jobs.self_s", "s"},
	{"jobs.submitted", "count"},
	{"jobs.cache_hit_ratio", "1"},
	{"jobs.coalesced", "count"},
	{"jobs.queue_wait_p50_ms", "ms"},
	{"store.points", "count"},
	{"store.bytes", "bytes"},
	{"store.append_s", "s"},
	{"store.load_s", "s"},
	{"simd.busy_s", "s"},
	{"simd.batch_p50_ms", "ms"},
	{"simd.static_p50_ms", "ms"},
	{"simd.query_p50_ms", "ms"},
	{"simd.explain_p50_ms", "ms"},
	{"simd.batch_count", "count"},
	{"simd.static_count", "count"},
	{"simd.query_count", "count"},
	{"simd.explain_count", "count"},
	{"simd.http_5xx", "count"},
	{"telemetry.overhead_s", "s"},
	{"telemetry.overhead_cpu_s", "s"},
	{"other_s", "s"},
}

// timeLayers are the per-layer host-time metrics that partition a
// traced run's wall time: they plus other_s sum to traced_wall_s.
var timeLayers = []string{
	"experiments.self_s", "core.self_s", "mcc.busy_s", "asm.busy_s",
	"verify.busy_s", "static.busy_s", "synth.busy_s", "decode.busy_s",
	"sim.busy_s", "memsys.observe_s", "cache.observe_s",
	"pipeline.observe_s", "jobs.self_s", "store.append_s", "simd.busy_s",
	"other_s",
}

// exactCounts are the traced counts that must repeat exactly across two
// traced runs of the same workload and seed.
var exactCounts = []string{
	"sim.instrs", "mcc.compiles", "decode.misses", "core.runs",
	"cache.runs", "pipeline.runs", "verify.images", "static.images",
	"synth.programs", "store.points", "store.bytes",
}
