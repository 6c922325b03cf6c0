package main

import (
	"math"
	"testing"

	"repro/internal/telemetry"
)

// ev builds a tracer event from seconds.
func ev(name string, start, end float64, kv ...string) telemetry.Event {
	args := map[string]string{}
	for i := 0; i+1 < len(kv); i += 2 {
		args[kv[i]] = kv[i+1]
	}
	return telemetry.Event{Name: name, TS: start * 1e6, Dur: (end - start) * 1e6, Args: args}
}

func charge(spans []*span, w0, w1 float64) map[string]float64 {
	layers := map[string]float64{"other_s": attribute(spans, w0, w1)}
	for _, s := range spans {
		layers[layerOfSpan(s, spans)] += s.share
	}
	return layers
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestInlineNesting: on one strand, self time is duration minus
// children, and runs charge the observer layer their lab span names.
func TestInlineNesting(t *testing.T) {
	spans := buildSpans([]telemetry.Event{
		ev("bench.paper", 0, 10, "sid", "0"),
		ev("bench.experiment", 1, 9, "sid", "1", "parent", "0"),
		ev("compile", 1, 2, "config", "D16"),
		ev("verify", 2, 2.5, "config", "D16"),
		ev("jobs.run", 3, 8, "job", "cache-sweep b|D16"),
		ev("cache-sweep", 3, 8, "bench", "b", "config", "D16"),
		ev("run", 4, 7, "bench", "b", "config", "D16"),
	}, false)
	l := charge(spans, 0, 10)
	want := map[string]float64{
		"other_s": 2, "experiments.self_s": 1.5, "mcc.busy_s": 1, "verify.busy_s": 0.5,
		"core.self_s": 2, "cache.observe_s": 3,
	}
	for k, v := range want {
		if !near(l[k], v) {
			t.Errorf("%s = %v, want %v", k, l[k], v)
		}
	}
	if err := checkPartition(l, 10); err != nil {
		t.Error(err)
	}
}

// TestPooledSharing: concurrent lanes share each instant equally, a
// root waiting on pooled jobs gets no share, and a lab span's parent is
// the job that names it even when another job contains it in time.
func TestPooledSharing(t *testing.T) {
	spans := buildSpans([]telemetry.Event{
		ev("bench.sweep", 0, 10, "sid", "0"),
		ev("compile", 0, 4, "config", "D16"),
		ev("jobs.run", 2, 10, "job", "bus-profile long|D16"),
		ev("bus-profile", 2, 10, "bench", "long", "config", "D16"),
		ev("jobs.run", 5, 6, "job", "bus-profile short|D16"),
		ev("bus-profile", 5, 6, "bench", "short", "config", "D16"),
	}, true)
	for _, s := range spans {
		if s.name == "bus-profile" && spans[s.parent].attr("job") != "bus-profile "+s.attr("bench")+"|D16" {
			t.Errorf("bus-profile %s parented to %q", s.attr("bench"), spans[s.parent].attr("job"))
		}
	}
	l := charge(spans, 0, 10)
	// [0,2) compile alone; [2,4) compile + long; [4,5) long (root
	// waiting); [5,6) long + short; [6,10) long.
	want := map[string]float64{"mcc.busy_s": 3, "core.self_s": 7, "other_s": 0}
	for k, v := range want {
		if !near(l[k], v) {
			t.Errorf("%s = %v, want %v", k, l[k], v)
		}
	}
	if err := checkPartition(l, 10); err != nil {
		t.Error(err)
	}
}

// TestClientLanes: request spans on client lanes share the interval;
// gaps with no request in flight go to other.
func TestClientLanes(t *testing.T) {
	spans := buildSpans([]telemetry.Event{
		ev("bench.serve", 0, 10, "sid", "0"),
		ev("bench.request", 0, 4, "sid", "r0", "parent", "0", "lane", "1"),
		ev("bench.request", 1, 3, "sid", "r1", "parent", "0", "lane", "2"),
		ev("bench.request", 5, 9, "sid", "r2", "parent", "0", "lane", "1"),
	}, false)
	l := charge(spans, 0, 10)
	if !near(l["simd.busy_s"], 8) || !near(l["other_s"], 2) {
		t.Errorf("simd %v other %v, want 8 and 2", l["simd.busy_s"], l["other_s"])
	}
	if err := checkPartition(l, 10); err != nil {
		t.Error(err)
	}
}

// TestSplitCapsCarves: replay estimates are scaled from busy time to
// share and never exceed the span.
func TestSplitCapsCarves(t *testing.T) {
	into := map[string]float64{}
	s := &span{busy: 2, share: 1}
	split(into, s, "core.self_s", carve{"sim.busy_s", 1})
	if !near(into["sim.busy_s"], 0.5) || !near(into["core.self_s"], 0.5) {
		t.Errorf("scaled split = %v", into)
	}
	into = map[string]float64{}
	split(into, s, "core.self_s", carve{"sim.busy_s", 3}, carve{"decode.busy_s", 1})
	if !near(into["sim.busy_s"], 0.75) || !near(into["decode.busy_s"], 0.25) || !near(into["core.self_s"], 0) {
		t.Errorf("capped split = %v", into)
	}
}
