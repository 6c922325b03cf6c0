package sim_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/isa"
	"repro/internal/mcc"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// The throughput benchmarks time the hot loop on queens, bare and with
// one engine attached, so it can be profiled in place (-cpuprofile).

func compileQueens(tb testing.TB) *mcc.Compiled {
	tb.Helper()
	prog := bench.ByName("queens")
	if prog == nil {
		tb.Fatal("benchmark queens missing")
	}
	c, err := mcc.Compile(prog.Name+".mc", prog.Source, isa.D16())
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func BenchmarkRun(b *testing.B) {
	c := compileQueens(b)
	max := bench.ByName("queens").MaxInstrs
	b.ReportAllocs()
	var instrs int64
	for i := 0; i < b.N; i++ {
		m, err := sim.Acquire(c.Image)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Run(max); err != nil {
			b.Fatal(err)
		}
		instrs += m.Stats.Instrs
		sim.Release(m)
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

func BenchmarkRunEngine(b *testing.B) {
	c := compileQueens(b)
	max := bench.ByName("queens").MaxInstrs
	b.ReportAllocs()
	var instrs int64
	for i := 0; i < b.N; i++ {
		m, err := sim.Acquire(c.Image)
		if err != nil {
			b.Fatal(err)
		}
		m.Attach(pipeline.New(pipeline.Config{BusBytes: 4, WaitStates: 1}))
		if err := m.Run(max); err != nil {
			b.Fatal(err)
		}
		instrs += m.Stats.Instrs
		sim.Release(m)
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// maxAllocsPerInstr is the production hot path's absolute allocation
// budget. The loop itself allocates nothing (TestRunDoesNotAllocate);
// the budget leaves room for the per-run engine and for a fresh machine
// when a GC has emptied Acquire's pool, amortized over the path length.
const maxAllocsPerInstr = 0.1

// TestRunEngineAllocBudget runs BenchmarkRunEngine's shape — pooled
// machine, shared predecoded table, one devirtualized engine — and
// fails when its allocations per simulated instruction reach the budget.
func TestRunEngineAllocBudget(t *testing.T) {
	c := compileQueens(t)
	max := bench.ByName("queens").MaxInstrs
	var instrs int64
	allocs := testing.AllocsPerRun(5, func() {
		m, err := sim.Acquire(c.Image)
		if err != nil {
			t.Fatal(err)
		}
		m.Attach(pipeline.New(pipeline.Config{BusBytes: 4, WaitStates: 1}))
		if err := m.Run(max); err != nil {
			t.Fatal(err)
		}
		instrs = m.Stats.Instrs
		sim.Release(m)
	})
	if per := allocs / float64(instrs); per >= maxAllocsPerInstr {
		t.Errorf("%.4f allocations per simulated instruction (%.0f per run, %d instructions), budget %.2f",
			per, allocs, instrs, maxAllocsPerInstr)
	}
}
