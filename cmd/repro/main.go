// Command repro regenerates the paper's tables and figures.
//
// Usage:
//
//	repro -list                     # enumerate experiments
//	repro -run fig4,tab5            # run selected experiments
//	repro -run all                  # run everything (the full evaluation)
//	repro -run all -json out/       # also write machine-readable results:
//	                                #   out/<id>.json    per-experiment tables
//	                                #   out/summary.json per-bench×config scalars
//	                                #   out/metrics.json compiler + model counters
//	repro -trace out/trace.json     # write a Chrome trace_event file of the
//	                                # compile/assemble/link/run pipeline spans
//	                                # (open in chrome://tracing or Perfetto)
//	repro -verify                   # statically verify every seed benchmark
//	                                # on every paper configuration; prints a
//	                                # per-benchmark violation table, writes
//	                                # verify.json with -json, exits 3 if any
//	                                # image has violations (see docs/VERIFY.md)
//	repro -static                   # static cost/density analysis of every
//	                                # seed benchmark on every configuration,
//	                                # zero simulation: code density + ifetch
//	                                # traffic tables (the paper's ~1.5-1.6x
//	                                # density ratio), loop bounds, and sound
//	                                # whole-image cycle intervals; writes
//	                                # static.json with -json, exits 3 if any
//	                                # image fails (see docs/STATIC.md)
//	repro -account                  # cycle-accounting report: per-benchmark
//	                                # bucket breakdowns (D16/DLXe, cacheless
//	                                # and cached) plus the per-function
//	                                # differential D16-vs-DLXe report
//	repro -listen :6060             # serve /debug/pprof and /metrics
//	                                # (Prometheus text format) during the run
//	repro ... -timing=false         # omit wall-clock stamps from JSON and
//	                                # stdout so repeated runs are
//	                                # byte-identical
//	repro -jobs 8                   # run experiments concurrently on an
//	                                # 8-worker simulation scheduler; output
//	                                # is assembled in submission order and
//	                                # stays byte-identical to -jobs 1
//	repro -query 'bench=queens by=cycles top=5' -store out/points.mcst
//	                                # filter/rank the columnar measurement
//	                                # store a -json run wrote; the JSON
//	                                # answer is byte-identical to simd's
//	                                # GET /v1/query for the same filter
//	repro -diff base.mcst,cur.mcst  # surface gate: diff two measurement
//	                                # stores point by point, print the
//	                                # worst movers per point and bucket,
//	                                # exit 1 if any matched point's cycles
//	                                # regressed more than 10%
//	repro -explain 'a=D16/16/2 b=DLXe/32/3 bench=towers waits=1'
//	                                # A/B drill-down: pair the two sides'
//	                                # points (configs re-measured, .mcst
//	                                # files read), rank the worst movers,
//	                                # re-simulate them and print per-PC
//	                                # stall heatmaps plus stall-annotated
//	                                # disassembly; writes explain.json
//	                                # with -json (see docs/EXPLAIN.md)
//	repro -sweep 'classes=loopy,callheavy count=50 seed=7 waits=0-3'
//	                                # generate a verified synthetic corpus
//	                                # (every program compiles on all ISAs,
//	                                # passes the machine-code verifier and
//	                                # computes identical output on D16 and
//	                                # DLXe) and cross it with the hardware
//	                                # grid, streaming the surface into the
//	                                # -store file; failing programs leave a
//	                                # minimized .mc in -faildir plus a
//	                                # one-line repro; exit 4 on failures
//	                                # (see docs/SWEEP.md)
//
// With -json, the run also writes out/points.mcst: the columnar
// measurement store (one point per bench × config × bus × wait states,
// with exact per-cause cycle buckets). See docs/STORE.md for the
// format, the query grammar and the diff semantics, and
// docs/OBSERVABILITY.md for the other file formats; docs/SERVICE.md
// covers the scheduler the parallel mode runs on.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func main() {
	list := flag.Bool("list", false, "list experiments")
	run := flag.String("run", "all", "comma-separated experiment IDs, or \"all\"")
	jsonDir := flag.String("json", "", "directory for machine-readable results (per-experiment JSON, summary.json, metrics.json)")
	traceFile := flag.String("trace", "", "write pipeline spans as Chrome trace-event JSON to this file")
	account := flag.Bool("account", false, "run the cycle-accounting report (bucket breakdowns + differential D16/DLXe per-function report) instead of experiments")
	verifyMode := flag.Bool("verify", false, "statically verify every seed benchmark on every paper configuration and print per-benchmark violation tables (exit 3 on any violation)")
	staticMode := flag.Bool("static", false, "run the static cost/density analyzer on every seed benchmark x paper configuration (no simulation): density + ifetch tables, cycle-bound summaries; writes static.json with -json (exit 3 on any failed image)")
	listen := flag.String("listen", "", "serve /debug/pprof and /metrics on this address for the duration of the run")
	timing := flag.Bool("timing", true, "stamp elapsed wall-clock seconds into per-experiment JSON (disable for byte-identical reruns)")
	jobsN := flag.Int("jobs", 1, "simulation workers; >1 runs experiments concurrently through the job scheduler, with output assembled in deterministic submission order")
	query := flag.String("query", "", "query the columnar measurement store instead of running experiments: key=value filter terms (bench, config/isa, bus, waits, cachekb, by, top; see docs/STORE.md)")
	explainQ := flag.String("explain", "", "A/B explain drill-down: a=<config|store.mcst> b=<config|store.mcst> plus bench/bus/waits/cachekb/top/rows filters (see docs/EXPLAIN.md); writes <dir>/explain.json with -json")
	storePath := flag.String("store", "", "measurement store file for -query and -sweep (default <dir>/points.mcst next to -json output, see docs/STORE.md)")
	sweepSpec := flag.String("sweep", "", "full-factorial design-space sweep over a generated, verified synthetic corpus: key=value terms (classes, count, seed, progseed, isa, bus, waits, cachekb, misspenalty; see docs/SWEEP.md); writes the surface to -store")
	failDir := flag.String("faildir", "", "artifact directory for sweep failures: minimized .mc source per failing program (default <dir>/sweep-failures)")
	diffSpec := flag.String("diff", "", "surface gate: diff two measurement stores (baseline.mcst,current.mcst) and exit 1 if any matched point's cycles regressed more than 10% (see docs/STORE.md)")
	flag.Parse()

	if *listen != "" {
		serveDebug(*listen)
	}

	if *diffSpec != "" {
		regressed, err := runDiff(*diffSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(2)
		}
		if regressed > 0 {
			os.Exit(1)
		}
		return
	}

	if *sweepSpec == "" && (*query != "" || *storePath != "") {
		if err := runQuery(*storePath, *query, *jsonDir); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(2)
		}
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	if *verifyMode {
		if *jsonDir != "" {
			if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if dirty := runVerify(*jsonDir); dirty > 0 {
			os.Exit(3)
		}
		return
	}

	if *staticMode {
		if *jsonDir != "" {
			if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if dirty := runStatic(*jsonDir, *jobsN); dirty > 0 {
			os.Exit(3)
		}
		return
	}

	var todo []*experiments.Experiment
	if *run == "all" {
		todo = experiments.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e := experiments.ByID(strings.TrimSpace(id))
			if e == nil {
				fmt.Fprintf(os.Stderr, "repro: unknown experiment %q\nvalid experiments: %s\n",
					id, strings.Join(experimentIDs(), ", "))
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}

	if *traceFile != "" {
		telemetry.SetGlobalTracer(telemetry.NewTracer())
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	var lab *core.Lab
	if *jobsN > 1 {
		lab = core.NewParallelLab(*jobsN)
	} else {
		lab = core.NewLab()
	}
	ctx := &experiments.Ctx{Lab: lab, W: os.Stdout}

	if *sweepSpec != "" {
		failed, err := runSweep(lab, *sweepSpec, *storePath, *failDir, *jsonDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(2)
		}
		if *traceFile != "" {
			if err := writeTrace(*traceFile); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if failed > 0 {
			os.Exit(4)
		}
		return
	}

	if *explainQ != "" {
		if err := runExplain(lab, *explainQ, *jsonDir); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(2)
		}
		if *traceFile != "" {
			if err := writeTrace(*traceFile); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		return
	}

	if *account {
		if err := runAccount(ctx, *jsonDir, *timing); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *traceFile != "" {
			if err := writeTrace(*traceFile); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		return
	}

	outs := make([]*expOutput, len(todo))
	if *jobsN > 1 {
		// Every experiment runs on its own goroutine against the shared
		// lab: heavy work (the simulations) lands on the scheduler's
		// worker pool, identical points coalesce, and the cheap table
		// rendering happens concurrently into per-experiment buffers.
		// Draining the buffers in submission order makes stdout and the
		// JSON files byte-identical to a sequential run.
		for i, e := range todo {
			outs[i] = newExpOutput()
			go runExperiment(lab, e, *jsonDir != "", outs[i])
		}
	}
	for i, e := range todo {
		if outs[i] == nil {
			outs[i] = newExpOutput()
			runExperiment(lab, e, *jsonDir != "", outs[i])
		}
		o := outs[i]
		<-o.done
		printHeader(os.Stdout, e)
		if _, err := io.Copy(os.Stdout, &o.buf); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, o.err)
			os.Exit(1)
		}
		if o.rec != nil {
			if *timing {
				o.rec.ElapsedSec = o.elapsed.Seconds()
			}
			path := filepath.Join(*jsonDir, e.ID+".json")
			if err := telemetry.WriteJSONFile(path, o.rec); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
				os.Exit(1)
			}
		}
		if *timing {
			fmt.Printf("[%s completed in %.1fs]\n\n", e.ID, o.elapsed.Seconds())
		} else {
			fmt.Printf("[%s completed]\n\n", e.ID)
		}
	}

	if *jsonDir != "" {
		if err := writeSummary(ctx.Lab, *jsonDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *traceFile != "" {
		if err := writeTrace(*traceFile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// expOutput collects one experiment's rendered tables, structured
// record and outcome; done is closed when the experiment finishes.
type expOutput struct {
	buf     bytes.Buffer
	rec     *telemetry.ExperimentResult
	err     error
	elapsed time.Duration
	done    chan struct{}
}

func newExpOutput() *expOutput { return &expOutput{done: make(chan struct{})} }

// runExperiment executes one experiment into its output buffer. It is
// safe to call from concurrent goroutines: each experiment gets its own
// Ctx, and all shared state sits behind the lab's scheduler.
func runExperiment(lab *core.Lab, e *experiments.Experiment, record bool, o *expOutput) {
	defer close(o.done)
	start := time.Now()
	ctx := &experiments.Ctx{Lab: lab, W: &o.buf}
	if record {
		ctx.Rec = telemetry.NewExperimentResult(e.ID, e.Title)
	}
	span := telemetry.StartSpan("experiment", telemetry.String("id", e.ID))
	o.err = e.Run(ctx)
	span.End()
	o.elapsed = time.Since(start)
	if o.err == nil && record {
		o.rec = ctx.Rec
	}
}

func printHeader(w io.Writer, e *experiments.Experiment) {
	fmt.Fprintf(w, "==============================================================\n")
	fmt.Fprintf(w, "%s — %s\n", e.ID, e.Title)
	fmt.Fprintf(w, "==============================================================\n")
}

// experimentIDs returns every registered experiment ID in paper order.
func experimentIDs() []string {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// runAccount runs the cycle-accounting report, optionally recording its
// tables as out/account.json.
func runAccount(ctx *experiments.Ctx, jsonDir string, timing bool) error {
	start := time.Now()
	if jsonDir != "" {
		ctx.Rec = telemetry.NewExperimentResult("account",
			"Cycle accounting: bucket breakdowns and D16-vs-DLXe per-function differential")
	}
	fmt.Printf("==============================================================\n")
	fmt.Printf("account — cycle attribution and differential D16/DLXe report\n")
	fmt.Printf("==============================================================\n")
	span := telemetry.StartSpan("experiment", telemetry.String("id", "account"))
	err := experiments.Account(ctx)
	span.End()
	if err != nil {
		return err
	}
	if ctx.Rec != nil {
		if timing {
			ctx.Rec.ElapsedSec = time.Since(start).Seconds()
		}
		if err := telemetry.WriteJSONFile(filepath.Join(jsonDir, "account.json"), ctx.Rec); err != nil {
			return err
		}
		ctx.Rec = nil
	}
	if jsonDir != "" && len(ctx.Points) > 0 {
		// Cached-memory points (CacheKB > 0) measured by the account
		// experiment join the queryable surface; appending never rewrites
		// the closed-form grid a -json run wrote.
		if err := store.AppendFile(filepath.Join(jsonDir, "points.mcst"), ctx.Points); err != nil {
			return err
		}
	}
	if timing {
		fmt.Printf("[account completed in %.1fs]\n\n", time.Since(start).Seconds())
	} else {
		fmt.Printf("[account completed]\n\n")
	}
	return nil
}

// writeSummary exports every memoized measurement's scalars
// (summary.json), the columnar measurement surface (points.mcst, see
// docs/STORE.md — what repro -query and simd /v1/query answer from),
// and a metrics snapshot combining the process-wide registry (compiler
// counters, per-pass timings) with the measurements' registered model
// counters (metrics.json).
func writeSummary(lab *core.Lab, dir string) error {
	rows := lab.Summary()
	err := telemetry.WriteJSONFile(filepath.Join(dir, "summary.json"), struct {
		Rows []core.SummaryRow `json:"rows"`
	}{rows})
	if err != nil {
		return err
	}
	if err := store.WriteFile(filepath.Join(dir, "points.mcst"), lab.Points()); err != nil {
		return err
	}

	reg := telemetry.NewRegistry()
	for _, m := range lab.Measurements() {
		m.RegisterMetrics(reg, m.Bench+"."+m.Spec.Name+".")
	}
	snaps := append(telemetry.Default().Snapshot(), reg.Snapshot()...)
	return telemetry.WriteJSONFile(filepath.Join(dir, "metrics.json"), struct {
		Metrics []telemetry.Snapshot `json:"metrics"`
	}{snaps})
}

func writeTrace(path string) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return telemetry.GlobalTracer().WriteChromeTrace(f)
}
