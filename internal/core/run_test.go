package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/telemetry"
)

// TestRunTracingContract pins the span scheme host-time attribution
// relies on: every request kind opens a span named after the kind with
// bench/config attrs, inside a jobs.run span whose job name is
// "<kind> <bench>|<config>", and holds the simulation itself in a "run"
// child span with the same attrs.
func TestRunTracingContract(t *testing.T) {
	tr := telemetry.NewTracer()
	telemetry.SetGlobalTracer(tr)
	defer telemetry.SetGlobalTracer(nil)

	lab := NewLab()
	b := &bench.Benchmark{
		Name:      "tiny",
		Source:    "int main() { print_int(7); return 0; }",
		Expect:    "7",
		MaxInstrs: 10000,
	}
	spec := isa.D16()
	ctx := context.Background()
	engines := []AccountConfig{{BusBytes: 4, WaitStates: 1}}
	requests := []struct {
		kind string
		do   func() error
	}{
		{"measure", func() error { _, err := lab.Measure(b, spec); return err }},
		{"cache-sweep", func() error {
			_, err := lab.CacheSweep(b, spec, []cache.Config{cache.PaperConfig(1024)})
			return err
		}},
		{"pipeline-run", func() error { _, err := lab.PipelineRun(b, spec, engines); return err }},
		{"account-run", func() error { _, err := lab.Account(b, spec, engines); return err }},
		{"bus-profile", func() error {
			_, err := wait(lab.BusProfileTicket(ctx, b, spec, []uint32{4}))
			return err
		}},
	}
	for _, r := range requests {
		if err := r.do(); err != nil {
			t.Fatalf("%s: %v", r.kind, err)
		}
	}

	evs := tr.Events()
	contains := func(p, c telemetry.Event) bool {
		const eps = 1e-3 // µs; TS+Dur rounding
		return p.TS <= c.TS+eps && c.TS+c.Dur <= p.TS+p.Dur+eps
	}
	for _, r := range requests {
		kind := r.kind
		var spans []telemetry.Event
		for _, e := range evs {
			if e.Name == kind {
				spans = append(spans, e)
			}
		}
		if len(spans) != 1 {
			t.Errorf("%s: %d spans, want 1", kind, len(spans))
			continue
		}
		s := spans[0]
		if s.Args["bench"] != b.Name || s.Args["config"] != spec.Name {
			t.Errorf("%s: span attrs %v, want bench=%s config=%s", kind, s.Args, b.Name, spec.Name)
		}
		var run, job bool
		for _, e := range evs {
			switch {
			case e.Name == "run" && e.Args["bench"] == b.Name && e.Args["config"] == spec.Name && contains(s, e):
				run = true
			case e.Name == "jobs.run" && e.Args["job"] == kind+" "+b.Name+"|"+spec.Name && contains(e, s):
				job = true
			}
		}
		if !run {
			t.Errorf("%s: no run child span with matching bench/config attrs", kind)
		}
		if !job {
			t.Errorf("%s: not enclosed by a jobs.run span named %q", kind, kind+" "+b.Name+"|"+spec.Name)
		}
	}
}

// TestRunViewsAgree checks that the request kinds are views of one
// execution: the standard measurement's points equal a bus profile's
// expansion over the same grid, per-PC accounting moves no cycles, and
// attaching caches instead of bus models changes neither the output nor
// the statistics.
func TestRunViewsAgree(t *testing.T) {
	lab := NewLab()
	b := bench.ByName("ackermann")
	cells := []AccountConfig{
		{BusBytes: 4, WaitStates: 0},
		{BusBytes: 4, WaitStates: 2},
		{BusBytes: 8, WaitStates: 1},
		{BusBytes: 4, WaitStates: 1, SharedPort: true},
	}
	for _, spec := range []*isa.Spec{isa.D16(), isa.DLXe()} {
		m, err := lab.Measure(b, spec)
		if err != nil {
			t.Fatal(err)
		}
		p, err := wait(lab.BusProfileTicket(context.Background(), b, spec, []uint32{4, 8}))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p.PointsOver([]int64{0, 1, 2, 3}), m.Points(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: bus-profile points differ from the measure points", spec)
		}

		pr, err := lab.PipelineRun(b, spec, cells)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := lab.Account(b, spec, cells)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cells {
			e, a := pr.Engines[i], acc.Engines[i]
			if e.Cycles() != a.Cycles() || e.Breakdown() != a.Breakdown() {
				t.Errorf("%s cell %+v: pipeline %d cycles %v, accounted %d cycles %v",
					spec, cells[i], e.Cycles(), e.Breakdown(), a.Cycles(), a.Breakdown())
			}
		}

		cs, err := lab.CacheSweep(b, spec, []cache.Config{cache.PaperConfig(4096)})
		if err != nil {
			t.Fatal(err)
		}
		if cs.Output != m.Output || cs.Stats != m.Stats {
			t.Errorf("%s: cache sweep output/stats %q %+v, measure %q %+v",
				spec, cs.Output, cs.Stats, m.Output, m.Stats)
		}
	}
}
