// Package telemetry is the repo's zero-dependency observability layer:
// a metrics registry (counters, gauges, fixed-bound histograms), span
// tracing with Chrome trace_event export, a generic ring buffer for
// last-N event capture, and machine-readable experiment results.
//
// Everything here is stdlib-only and safe for concurrent use unless a
// type documents otherwise. Hot paths (simulator inner loops) should
// prefer RegisterFunc over per-event counter updates: a func gauge reads
// an existing field at snapshot time and costs nothing during the run.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric with atomic updates.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (negative deltas are ignored; counters only go up).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value with atomic updates.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Bucket is one non-empty histogram bucket in a snapshot: Count values
// observed in (Low, High]. The first bucket also holds values at or
// below zero; the overflow bucket exports High 0.
type Bucket struct {
	Low   int64 `json:"low"`
	High  int64 `json:"high"`
	Count int64 `json:"count"`
}

// Snapshot is the exported state of one metric.
type Snapshot struct {
	Name  string   `json:"name"`
	Kind  string   `json:"kind"` // counter, gauge, histogram
	Value int64    `json:"value,omitempty"`
	Count int64    `json:"count,omitempty"`
	Sum   int64    `json:"sum,omitempty"`
	Min   int64    `json:"min,omitempty"`
	Max   int64    `json:"max,omitempty"`
	Mean  float64  `json:"mean,omitempty"`
	Hist  []Bucket `json:"buckets,omitempty"`
	// P50/P90/P99 are filled for histograms only: fixed bucket bounds
	// make them deterministic (see Histogram).
	P50 int64 `json:"p50,omitempty"`
	P90 int64 `json:"p90,omitempty"`
	P99 int64 `json:"p99,omitempty"`
}

type metric interface {
	snapshot(name string) Snapshot
}

func (c *Counter) snapshot(name string) Snapshot {
	return Snapshot{Name: name, Kind: "counter", Value: c.Value()}
}

func (g *Gauge) snapshot(name string) Snapshot {
	return Snapshot{Name: name, Kind: "gauge", Value: g.Value()}
}

// funcGauge reads an external value at snapshot time; it costs nothing
// while the instrumented code runs.
type funcGauge func() int64

func (f funcGauge) snapshot(name string) Snapshot {
	return Snapshot{Name: name, Kind: "gauge", Value: f()}
}

// Registry is a named collection of metrics.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]metric{}}
}

func lookup[T metric](r *Registry, name string, make func() T) T {
	r.mu.RLock()
	m, ok := r.metrics[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if m, ok = r.metrics[name]; !ok {
			m = make()
			r.metrics[name] = m
		}
		r.mu.Unlock()
	}
	t, ok := m.(T)
	if !ok {
		panic(fmt.Sprintf("telemetry: metric %q re-registered with a different kind", name))
	}
	return t
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return lookup(r, name, func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return lookup(r, name, func() *Gauge { return &Gauge{} })
}

// RegisterFunc publishes fn as a read-only gauge under name, replacing
// any previous registration of that name.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	r.mu.Lock()
	r.metrics[name] = funcGauge(fn)
	r.mu.Unlock()
}

// Snapshot returns every metric's state, sorted by name.
func (r *Registry) Snapshot() []Snapshot {
	r.mu.RLock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Snapshot, 0, len(names))
	for _, n := range names {
		out = append(out, r.metrics[n].snapshot(n))
	}
	r.mu.RUnlock()
	return out
}

// WriteJSON writes the snapshot as an indented JSON document.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Metrics []Snapshot `json:"metrics"`
	}{r.Snapshot()})
}

// defaultRegistry is the process-wide registry package-level helpers use.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }
