package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four
// groups, computed exactly as Python's statistics.quantiles(xs, n=4)
// does (the default "exclusive" method). It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return 0, 0, 0, false
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], true
}

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is an anecdote, not a percentile.
const minBeyond = 10

// pctile is one reported percentile: the value, the percentile it
// really is, and the samples it rests on.
type pctile struct {
	Value  float64 // the sample at that rank
	Pct    float64 // the percentile reported (may be below the one asked for)
	N      int     // samples in the distribution
	Beyond int     // samples ranked above the reported one
}

// rankPct reports the nearest-rank p-th percentile (0 < p <= 100) of
// xs, with no tail rule (medians are reported as they are).
func rankPct(xs []float64, p float64) pctile {
	n := len(xs)
	if n == 0 {
		return pctile{}
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return atRank(xs, rank)
}

// tailPct reports the nearest-rank p-th percentile of xs under the tail
// rule: the reported rank keeps at least minBeyond samples above it.
// When the asked-for rank would leave fewer, the highest percentile that
// still has them is reported instead; with too few samples for any
// such percentile, the median is reported and Beyond says how thin it
// is.
func tailPct(xs []float64, p float64) pctile {
	n := len(xs)
	if n == 0 {
		return pctile{}
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank > n-minBeyond {
		rank = n - minBeyond
	}
	if rank < 1 {
		rank = (n + 1) / 2
	}
	return atRank(xs, rank)
}

func atRank(xs []float64, rank int) pctile {
	s := sorted(xs)
	n := len(s)
	return pctile{Value: s[rank-1], Pct: 100 * float64(rank) / float64(n), N: n, Beyond: n - rank}
}
