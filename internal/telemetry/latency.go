package telemetry

import (
	"math"
	"sync/atomic"
)

// latencyBounds are every histogram's bucket upper bounds, in
// microseconds: 50µs to 10s on a 1-2.5-5 ladder. Fixed bounds make the
// exported quantiles deterministic functions of the observation
// multiset — two runs that observe the same values report the same
// p50/p90/p99.
var latencyBounds = [...]int64{
	50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000, 10_000_000,
}

// Histogram accumulates a distribution of microsecond durations in the
// latencyBounds buckets, plus count/sum/min/max, all with atomic
// updates. Bucket i counts observations v with v <= latencyBounds[i]
// (and v > latencyBounds[i-1]); one overflow bucket catches the rest.
// Quantiles are estimated as the upper bound of the bucket where the
// cumulative count crosses the rank, which is deterministic and never
// interpolates.
type Histogram struct {
	counts [len(latencyBounds) + 1]atomic.Int64 // last is the overflow bucket
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // valid only when count > 0
	max    atomic.Int64
}

// newHistogram sets the min/max sentinels; histograms are created
// through a Registry, never as zero values.
func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.min.Load()
		if v >= old || h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	i := 0
	for i < len(latencyBounds) && v > latencyBounds[i] {
		i++
	}
	h.counts[i].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of
// the bucket holding the rank-⌈q·count⌉ observation. An empty histogram
// returns 0 (never NaN); ranks landing in the overflow bucket return
// the last bound (the histogram cannot resolve beyond it).
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 || q <= 0 {
		return 0
	}
	rank := int64(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	last := latencyBounds[len(latencyBounds)-1]
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(latencyBounds) {
				return latencyBounds[i]
			}
			return last
		}
	}
	return last
}

func (h *Histogram) snapshot(name string) Snapshot {
	s := Snapshot{
		Name: name, Kind: "histogram",
		Count: h.Count(), Sum: h.Sum(),
		P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
	}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
		s.Min, s.Max = h.min.Load(), h.max.Load()
	}
	low := int64(0)
	for i := range h.counts {
		n := h.counts[i].Load()
		high := int64(0)
		if i < len(latencyBounds) {
			high = latencyBounds[i]
		}
		if n != 0 {
			// Overflow bucket exports High 0 — WriteProm maps it to +Inf.
			s.Hist = append(s.Hist, Bucket{Low: low, High: high, Count: n})
		}
		low = high
	}
	return s
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return lookup(r, name, newHistogram)
}
