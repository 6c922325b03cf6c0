package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestFixedHistogramQuantiles(t *testing.T) {
	h := newHistogram()

	// Empty: quantiles are 0, never NaN.
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty p99 = %d, want 0", got)
	}

	// 100 observations, one per value 1..100: deterministic ranks.
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{
		{0.10, 50},  // rank 10 -> first bucket (<=50)
		{0.50, 50},  // rank 50 -> first bucket
		{0.51, 100}, // rank 51 -> second bucket (<=100)
		{0.99, 100},
		{1.00, 100},
	} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("q=%v: got %d, want %d", tc.q, got, tc.want)
		}
	}
	if h.Count() != 100 || h.Sum() != 5050 {
		t.Fatalf("count/sum = %d/%d, want 100/5050", h.Count(), h.Sum())
	}

	// Overflow observations resolve to the last bound, not +Inf or 0.
	for i := 0; i < 100; i++ {
		h.Observe(20_000_000)
	}
	if got := h.Quantile(1.0); got != 10_000_000 {
		t.Fatalf("overflow p100 = %d, want last bound 10000000", got)
	}
}

func TestFixedHistogramDeterministic(t *testing.T) {
	// Same multiset, different observation order -> identical snapshots.
	a := newHistogram()
	b := newHistogram()
	vals := []int64{3, 70, 70, 900, 12_000, 450_000, 3, 42}
	for _, v := range vals {
		a.Observe(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		b.Observe(vals[i])
	}
	sa, sb := a.snapshot("x"), b.snapshot("x")
	if sa.P50 != sb.P50 || sa.P90 != sb.P90 || sa.P99 != sb.P99 || sa.Count != sb.Count || sa.Sum != sb.Sum {
		t.Fatalf("order-dependent snapshots:\n%+v\n%+v", sa, sb)
	}
	if len(sa.Hist) != len(sb.Hist) {
		t.Fatalf("bucket count differs: %d vs %d", len(sa.Hist), len(sb.Hist))
	}
}

func TestRegistryFixedHistogramReuse(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("lat")
	h2 := r.Histogram("lat")
	if h1 != h2 {
		t.Fatal("same name returned distinct histograms")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int64(0); j < 1000; j++ {
				r.Histogram("lat").Observe(j % 4)
			}
		}()
	}
	wg.Wait()
	if h1.Count() != 8000 {
		t.Fatalf("concurrent observes lost updates: %d != 8000", h1.Count())
	}
}

func TestFixedHistogramProm(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("http.request_latency_us")
	h.Observe(5)
	h.Observe(80)
	h.Observe(50_000_000) // overflow

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE http_request_latency_us histogram\n",
		`http_request_latency_us_bucket{le="50"} 1` + "\n",
		`http_request_latency_us_bucket{le="100"} 2` + "\n",
		`http_request_latency_us_bucket{le="+Inf"} 3` + "\n",
		"http_request_latency_us_sum 50000085\n",
		"http_request_latency_us_count 3\n",
		"http_request_latency_us_p50 100\n",
		"http_request_latency_us_p90 10000000\n",
		"http_request_latency_us_p99 10000000\n",
		"http_request_latency_us_mean 1.6666695e+07\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// The overflow bucket must not leak a le="0" series.
	if strings.Contains(out, `le="0"`) {
		t.Errorf("overflow bucket leaked a le=\"0\" series:\n%s", out)
	}
}
