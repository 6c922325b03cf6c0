package jobs

import "repro/internal/telemetry"

// Metrics is the scheduler's instrumentation, registered in a
// telemetry.Registry under one prefix (default "jobs."), so a service
// exposing telemetry.WriteProm publishes scheduler health for free:
//
//	jobs.queue_depth   gauge      tasks accepted but not yet started
//	jobs.inflight      gauge      tasks currently executing on a worker
//	jobs.submitted     counter    Submit/TrySubmit calls accepted
//	jobs.done          counter    jobs finished successfully
//	jobs.failed        counter    jobs finished with an error (incl. timeout)
//	jobs.overloaded    counter    TrySubmit rejections (queue full)
//	jobs.coalesced     counter    submissions joined to an in-flight job
//	jobs.cache.hits    counter    submissions served from the result cache
//	jobs.cache.misses  counter    submissions that had to execute
//	jobs.cache.entries gauge      results currently cached
//	jobs.latency_us    histogram  per-job wall-clock execution time (µs)
//	jobs.queue_wait_us histogram  submit-to-dequeue wait (µs, pooled
//	                              mode only)
//
// Histograms export deterministic p50/p90/p99 through WriteProm.
type Metrics struct {
	QueueDepth  *telemetry.Gauge
	InFlight    *telemetry.Gauge
	Submitted   *telemetry.Counter
	Done        *telemetry.Counter
	Failed      *telemetry.Counter
	Overloaded  *telemetry.Counter
	Coalesced   *telemetry.Counter
	CacheHits   *telemetry.Counter
	CacheMisses *telemetry.Counter
	LatencyUS   *telemetry.Histogram
	QueueWaitUS *telemetry.Histogram
}

// newMetrics binds the metric set into reg under prefix and registers
// the cache-size and worker-count func gauges.
func newMetrics(reg *telemetry.Registry, prefix string, cache *Cache, workers int) *Metrics {
	m := &Metrics{
		QueueDepth:  reg.Gauge(prefix + "queue_depth"),
		InFlight:    reg.Gauge(prefix + "inflight"),
		Submitted:   reg.Counter(prefix + "submitted"),
		Done:        reg.Counter(prefix + "done"),
		Failed:      reg.Counter(prefix + "failed"),
		Overloaded:  reg.Counter(prefix + "overloaded"),
		Coalesced:   reg.Counter(prefix + "coalesced"),
		CacheHits:   reg.Counter(prefix + "cache.hits"),
		CacheMisses: reg.Counter(prefix + "cache.misses"),
		LatencyUS:   reg.Histogram(prefix + "latency_us"),
		QueueWaitUS: reg.Histogram(prefix + "queue_wait_us"),
	}
	reg.RegisterFunc(prefix+"cache.entries", func() int64 { return int64(cache.Len()) })
	reg.RegisterFunc(prefix+"workers", func() int64 { return int64(workers) })
	return m
}
