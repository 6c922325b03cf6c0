package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// reqStats is the per-request observability record the middleware
// creates and handlers annotate: scheduler cache traffic attributable
// to this request (handleBatch fills it from its tickets) plus any
// extra key=value fields a handler wants in the access log.
type reqStats struct {
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	extra       atomic.Pointer[string]
}

type reqStatsKey struct{}

// statsFrom returns the request's stats record (never nil: handlers
// outside the middleware get a discard record, so annotating is always
// safe).
func statsFrom(ctx context.Context) *reqStats {
	if s, ok := ctx.Value(reqStatsKey{}).(*reqStats); ok {
		return s
	}
	return &reqStats{}
}

// annotate adds one key=value field to the request's access-log line.
func (s *reqStats) annotate(key, value string) {
	kv := key + "=" + value
	if prev := s.extra.Load(); prev != nil {
		kv = *prev + " " + kv
	}
	s.extra.Store(&kv)
}

// statusRecorder captures the response status for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// accessLog wraps the service mux with request-scoped observability:
//
//   - every call gets a request ID (r<seq>, monotonic per process),
//     attached to the request context so the jobs scheduler stamps it
//     into its execution spans and echoed in the X-Request-Id header,
//   - request latency is observed into the http.request_latency_us
//     histogram (p50/p90/p99 on /metrics),
//   - unless quiet, one structured key=value line per request goes to
//     the standard logger: method, path, request ID, status, duration,
//     and the request's cache hit/miss counts.
func accessLog(next http.Handler, reg *telemetry.Registry, quiet bool) http.Handler {
	var seq atomic.Int64
	latency := reg.Histogram("http.request_latency_us")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := fmt.Sprintf("r%06d", seq.Add(1))
		stats := &reqStats{}
		ctx := telemetry.WithRequestID(r.Context(), rid)
		ctx = context.WithValue(ctx, reqStatsKey{}, stats)
		w.Header().Set("X-Request-Id", rid)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}

		next.ServeHTTP(rec, r.WithContext(ctx))

		dur := time.Since(start)
		latency.Observe(dur.Microseconds())
		if quiet {
			return
		}
		line := fmt.Sprintf("method=%s path=%s request_id=%s status=%d dur_us=%d cache_hit=%d cache_miss=%d",
			r.Method, r.URL.Path, rid, rec.status, dur.Microseconds(),
			stats.cacheHits.Load(), stats.cacheMisses.Load())
		if extra := stats.extra.Load(); extra != nil {
			line += " " + *extra
		}
		log.Print(line)
	})
}
