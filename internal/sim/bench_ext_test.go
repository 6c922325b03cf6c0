package sim_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mcc"
	"repro/internal/memsys"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// The throughput benchmarks time the hot loop on queens, bare and under
// each production observer shape, so it can be profiled in place
// (-cpuprofile).

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

// shapes are the production observer sets: one devirtualized engine
// (pipeline runs), the standard measurement (both fetch-bus models plus
// the per-op counts the immediate classifier folds) and a 20-geometry
// cache sweep (Tables 14-16) driven through one bank. attach returns
// what the run's owner does once Run returns.
var shapes = []struct {
	name   string
	attach func(m *sim.Machine) (after func())
}{
	{"engine", func(m *sim.Machine) func() {
		m.Attach(pipeline.New(pipeline.Config{BusBytes: 4, WaitStates: 1}))
		return func() {}
	}},
	{"measure", func(m *sim.Machine) func() {
		m.Attach(memsys.NewNoCache(4))
		m.Attach(memsys.NewNoCache(8))
		m.CountOps()
		return func() { m.EachOpCount(func(isa.Instr, int64) {}) }
	}},
	{"cache-sweep", func(m *sim.Machine) func() {
		var systems []*cache.System
		for _, size := range []uint32{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10} {
			for _, block := range []uint32{8, 16, 32, 64} {
				cfg := cache.PaperConfigSub(size, block)
				systems = append(systems, &cache.System{I: cache.MustNew(cfg), D: cache.MustNew(cfg)})
			}
		}
		bank := cache.NewBank(systems)
		m.Attach(bank)
		return bank.Drain
	}},
}

// runShape runs c once on a pooled machine observed as shape i and
// returns the path length.
func runShape(tb testing.TB, c *mcc.Compiled, max int64, i int) int64 {
	m, err := sim.Acquire(c.Image)
	if err != nil {
		tb.Fatal(err)
	}
	after := shapes[i].attach(m)
	if err := m.Run(max); err != nil {
		tb.Fatal(err)
	}
	after()
	instrs := m.Stats.Instrs
	sim.Release(m)
	return instrs
}

func BenchmarkRunObserved(b *testing.B) {
	c := compileQueens(b)
	max := bench.ByName("queens").MaxInstrs
	for i, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			var instrs int64
			for n := 0; n < b.N; n++ {
				instrs += runShape(b, c, max, i)
			}
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
		})
	}
}

// maxAllocsPerInstr is the production hot path's absolute allocation
// budget. The loop itself allocates nothing (TestRunDoesNotAllocate);
// the budget leaves room for the per-run observers and for a fresh
// machine when a GC has emptied Acquire's pool, amortized over the path
// length.
const maxAllocsPerInstr = 0.1

// TestRunEngineAllocBudget runs each production shape — pooled machine,
// shared predecoded table, the shape's observers — and fails when its
// allocations per simulated instruction reach the budget.
func TestRunEngineAllocBudget(t *testing.T) {
	c := compileQueens(t)
	max := bench.ByName("queens").MaxInstrs
	for i, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			var instrs int64
			allocs := testing.AllocsPerRun(5, func() { instrs = runShape(t, c, max, i) })
			if per := allocs / float64(instrs); per >= maxAllocsPerInstr {
				t.Errorf("%.4f allocations per simulated instruction (%.0f per run, %d instructions), budget %.2f",
					per, allocs, instrs, maxAllocsPerInstr)
			}
		})
	}
}
