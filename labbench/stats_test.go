package main

import "testing"

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, the rule the spread of a
// benchmark metric is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4}, [3]float64{1.8125, 3.75, 7.75}},
		{[]float64{2, 8}, [3]float64{0.5, 5, 9.5}},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported ok")
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentiles must sort
	}
	return xs
}

func TestRankPctReportsSampleCount(t *testing.T) {
	p := rankPct(seq(36), 50)
	if p.Value != 18 || p.Pct != 50 || p.N != 36 || p.Beyond != 18 {
		t.Errorf("rankPct(1..36, 50) = %+v", p)
	}
}

// TestTailPctRule: a tail percentile keeps at least minBeyond samples
// above it; otherwise the highest percentile that has them is reported,
// and with fewer than minBeyond+1 samples the median stands in.
func TestTailPctRule(t *testing.T) {
	for _, c := range []struct {
		n            int
		value, pct   float64
		beyond       int
		belowAsked   bool
		medianStands bool
	}{
		{n: 1000, value: 990, pct: 99, beyond: 10},
		{n: 2000, value: 1980, pct: 99, beyond: 20},
		{n: 500, value: 490, pct: 98, beyond: 10, belowAsked: true},
		{n: 36, value: 26, pct: 100 * 26.0 / 36, beyond: 10, belowAsked: true},
		{n: 11, value: 1, pct: 100 / 11.0, beyond: 10, belowAsked: true},
		{n: 5, value: 3, pct: 60, beyond: 2, medianStands: true},
	} {
		p := tailPct(seq(c.n), 99)
		if p.Value != c.value || p.Pct != c.pct || p.Beyond != c.beyond || p.N != c.n {
			t.Errorf("tailPct(n=%d) = %+v, want value %v pct %v beyond %d", c.n, p, c.value, c.pct, c.beyond)
		}
		if !c.medianStands && p.Beyond < minBeyond {
			t.Errorf("tailPct(n=%d) rests on %d samples beyond it", c.n, p.Beyond)
		}
		if (p.Pct < 99) != (c.belowAsked || c.medianStands) {
			t.Errorf("tailPct(n=%d) reported p%v", c.n, p.Pct)
		}
	}
	if p := tailPct(nil, 99); p.N != 0 {
		t.Errorf("tailPct(nil) = %+v", p)
	}
}
