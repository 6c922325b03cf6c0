package core

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/sim"
)

func TestMeasureMemoizes(t *testing.T) {
	lab := NewLab()
	b := bench.ByName("ackermann")
	m1, err := lab.Measure(b, isa.D16())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := lab.Measure(b, isa.D16())
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("second Measure did not return the cached result")
	}
	if m1.Stats.Instrs == 0 || m1.Size == 0 {
		t.Error("empty measurement")
	}
}

func TestMeasureChecksExpectedOutput(t *testing.T) {
	lab := NewLab()
	bad := &bench.Benchmark{
		Name:      "bad",
		Source:    "int main() { print_int(1); return 0; }",
		Expect:    "2",
		MaxInstrs: 10000,
	}
	if _, err := lab.Measure(bad, isa.D16()); err == nil {
		t.Fatal("expected an output-mismatch error")
	}
	// Errors are memoized too.
	if _, err := lab.Measure(bad, isa.D16()); err == nil {
		t.Fatal("expected the cached error")
	}
}

func TestMeasurementModels(t *testing.T) {
	lab := NewLab()
	b := bench.ByName("queens")
	m, err := lab.Measure(b, isa.DLXe())
	if err != nil {
		t.Fatal(err)
	}
	// On DLXe with a 32-bit bus every instruction is one fetch request.
	if m.Bus(4).IRequests != m.Stats.Instrs {
		t.Errorf("32-bit-bus DLXe fetches %d != instrs %d", m.Bus(4).IRequests, m.Stats.Instrs)
	}
	if m.Bus(8).IRequests >= m.Bus(4).IRequests {
		t.Error("wider bus should issue fewer fetch requests")
	}
	// Zero-wait CPI is 1 + interlock rate.
	want := 1 + float64(m.Stats.Interlocks)/float64(m.Stats.Instrs)
	if got := m.CPI(4, 0); got != want {
		t.Errorf("CPI(4,0) = %v, want %v", got, want)
	}
	if m.Cycles(4, 2) <= m.Cycles(4, 1) {
		t.Error("cycles must grow with wait states")
	}
}

func TestCacheSweepMemoizes(t *testing.T) {
	lab := NewLab()
	b := bench.ByName("ackermann")
	cfgs := []cache.Config{cache.PaperConfig(1024), cache.PaperConfig(2048)}
	m1, err := lab.CacheSweep(b, isa.D16(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	s1 := m1.Caches
	if len(s1) != 2 {
		t.Fatalf("%d systems, want 2", len(s1))
	}
	m2, err := lab.CacheSweep(b, isa.D16(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("sweep not memoized")
	}
	if s1[0].I.Stats.Reads == 0 {
		t.Error("no cache activity recorded")
	}
	// Larger cache, no more misses.
	if s1[1].I.Stats.Misses() > s1[0].I.Stats.Misses() {
		t.Error("larger cache missed more")
	}
}

func TestPipelineRun(t *testing.T) {
	lab := NewLab()
	b := bench.ByName("ackermann")
	run, err := lab.PipelineRun(b, isa.D16(), []AccountConfig{
		{BusBytes: 4, WaitStates: 0},
		{BusBytes: 4, WaitStates: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	engines := run.Engines
	if engines[1].Cycles() <= engines[0].Cycles() {
		t.Error("wait states must cost cycles")
	}
	m, err := lab.Measure(b, isa.D16())
	if err != nil {
		t.Fatal(err)
	}
	// The engine and the formula agree exactly at zero wait states.
	if got, want := engines[0].Cycles(), m.Cycles(4, 0)+4; got != want {
		t.Errorf("engine %d, formula+drain %d", got, want)
	}
}

func TestImmStatsClassification(t *testing.T) {
	var s ImmStats
	exec := func(in isa.Instr) { s.count(in, 1) }
	exec(isa.Instr{Op: isa.CMP, Cond: isa.LT, Rd: isa.R(3), Rs1: isa.R(4), Imm: 100, HasImm: true})
	exec(isa.Instr{Op: isa.CMP, Cond: isa.LT, Rd: isa.R(3), Rs1: isa.R(4), Imm: 1000, HasImm: true})
	exec(isa.Instr{Op: isa.ADDI, Rd: isa.R(3), Rs1: isa.R(3), Imm: 7, HasImm: true})
	exec(isa.Instr{Op: isa.ADDI, Rd: isa.R(3), Rs1: isa.R(3), Imm: 77, HasImm: true})
	exec(isa.Instr{Op: isa.ORI, Rd: isa.R(3), Rs1: isa.R(3), Imm: 1, HasImm: true})
	exec(isa.Instr{Op: isa.LD, Rd: isa.R(3), Rs1: isa.R(2), Imm: 120})
	exec(isa.Instr{Op: isa.LD, Rd: isa.R(3), Rs1: isa.R(2), Imm: 128})
	exec(isa.Instr{Op: isa.LDB, Rd: isa.R(3), Rs1: isa.R(2), Imm: 1})
	exec(isa.Instr{Op: isa.MVI, Rd: isa.R(3), Imm: 300, HasImm: true})
	exec(isa.Instr{Op: isa.JL, Imm: 400, HasImm: true})

	if s.Total != 10 {
		t.Errorf("total %d", s.Total)
	}
	if s.CmpImm != 2 || s.CmpImm8 != 1 {
		t.Errorf("cmp counts %d/%d, want 2/1", s.CmpImm, s.CmpImm8)
	}
	if s.WideALU != 2 { // addi 77 (beyond 5 bits) and ori
		t.Errorf("wide ALU %d, want 2", s.WideALU)
	}
	if s.WideMem != 2 { // ld 128 and ldb with nonzero offset
		t.Errorf("wide mem %d, want 2", s.WideMem)
	}
	if s.WideMVI != 1 || s.FarCalls != 1 {
		t.Errorf("mvi/farcall %d/%d, want 1/1", s.WideMVI, s.FarCalls)
	}
}

// refMeasure is the interface-path reference for the standard
// measurement: it sees every event through sim.MemObserver and counts
// the 32- and 64-bit fetch-bus requests, the data requests and the
// immediate classification one event at a time.
type refMeasure struct {
	buses [2]struct {
		bytes, block uint32
		have         bool
		reqs         int64
	}
	dreqs int64
	imm   ImmStats
}

func (r *refMeasure) Exec(pc uint32, in isa.Instr) {
	for i := range r.buses {
		b := &r.buses[i]
		if blk := pc &^ (b.bytes - 1); !b.have || blk != b.block {
			b.reqs++
			b.block, b.have = blk, true
		}
	}
	r.imm.count(in, 1)
}

func (r *refMeasure) Load(uint32, uint32)  { r.dreqs++ }
func (r *refMeasure) Store(uint32, uint32) { r.dreqs++ }

// TestMeasureMatchesReferenceObserver: on every image, the standard
// measurement's bus models (driven directly by the machine, DRequests
// derived from its data-op count) and its immediate classification
// (folded from per-op execution counts) equal what an interface-attached
// reference observer counts event by event. The comparison is
// arithmetic, not concurrency, so a -race build checks only the -short
// cross-section and keeps the package inside go test's default timeout.
func TestMeasureMatchesReferenceObserver(t *testing.T) {
	lab := NewLab()
	suite := goldenSuite(t)
	if raceEnabled {
		suite = nil
		for _, name := range []string{"queens", "towers", "bubblesort"} {
			suite = append(suite, bench.ByName(name))
		}
	}
	for _, b := range suite {
		for _, spec := range Configs() {
			c, err := lab.Compile(b, spec)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(b.Name+"|"+spec.Name, func(t *testing.T) {
				t.Parallel()
				got, err := execute(measureKind, b, spec, c, standard)
				if err != nil {
					t.Fatal(err)
				}
				m, err := sim.Acquire(c.Image)
				if err != nil {
					t.Fatal(err)
				}
				defer sim.Release(m)
				ref := &refMeasure{}
				ref.buses[0].bytes, ref.buses[1].bytes = 4, 8
				m.Attach(ref)
				if err := m.Run(b.MaxInstrs); err != nil {
					t.Fatal(err)
				}
				for i, bus := range got.Buses {
					if bus.IRequests != ref.buses[i].reqs || bus.DRequests != ref.dreqs {
						t.Errorf("%d-byte bus: requests I=%d D=%d, reference I=%d D=%d",
							bus.BusBytes, bus.IRequests, bus.DRequests, ref.buses[i].reqs, ref.dreqs)
					}
				}
				if got.Imm != ref.imm {
					t.Errorf("immediate classification %+v, reference %+v", got.Imm, ref.imm)
				}
			})
		}
	}
}
