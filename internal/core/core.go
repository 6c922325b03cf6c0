// Package core is the library's public facade: it ties the compiler,
// assembler, simulator and memory-system models together into the
// measurement pipeline the paper's experiments are built on.
//
// The central type is Lab, a memoizing measurement harness. It compiles
// a benchmark for a target configuration once, and every simulation goes
// through one run path: a request names its kind and an Observe set
// (fetch-bus models, the immediate-field classifier, cache systems,
// pipeline engines), is content-addressed over the program image and
// those observers, executes once with all of them attached, and returns
// a Measurement. The kind-specific methods (Measure, CacheSweep,
// PipelineRun, Account, BusProfileTicket) are one-line views of that
// path, as the paper reads every memory-system result off one execution
// through different timing models.
package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/jobs"
	"repro/internal/mcc"
	"repro/internal/memsys"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/verify"
)

// Measurement is the result of every run request: one benchmark
// compiled for one target configuration and executed once, seen through
// the observers the request attached. The static measures, the output
// and the execution statistics are always filled; Buses, Imm, Caches,
// Engines and Syms only when the request asked for them.
type Measurement struct {
	Bench string
	Spec  *isa.Spec

	// Static measures.
	Size         int // stripped binary bytes (text + data), the density measure
	TextBytes    int
	DataBytes    int
	PoolBytes    int // D16 literal pools (included in TextBytes)
	StaticInstrs int
	Spills       int

	// Dynamic measures.
	Output string
	Stats  sim.Stats

	// Cacheless memory-interface models (Appendix A.2), one per
	// requested fetch-bus width, in request order.
	Buses []*memsys.NoCache

	// Immediate-field classification (Table 4).
	Imm ImmStats

	// Split I/D cache systems, one per requested geometry.
	Caches []*cache.System

	// Cycle-level pipeline engines, one per requested memory
	// configuration; Syms folds their per-PC attribution per function
	// when the request enabled it.
	Engines []*pipeline.Engine
	Syms    *prog.SymTable

	Image *prog.Image
}

// Bus returns the cacheless model of the given fetch-bus width (bytes),
// or nil when the run did not observe that width.
func (m *Measurement) Bus(busBytes uint32) *memsys.NoCache {
	for _, b := range m.Buses {
		if b.BusBytes == busBytes {
			return b
		}
	}
	return nil
}

// Cycles evaluates total cycles for a cacheless machine with the given
// fetch-bus width (bytes) and wait states.
func (m *Measurement) Cycles(busBytes uint32, waitStates int64) int64 {
	return m.Bus(busBytes).Cycles(m.Stats.Instrs, m.Stats.Interlocks, waitStates)
}

// CPI is cycles per (own) instruction for the cacheless machine.
func (m *Measurement) CPI(busBytes uint32, waitStates int64) float64 {
	return float64(m.Cycles(busBytes, waitStates)) / float64(m.Stats.Instrs)
}

// ImmStats counts dynamic instructions whose immediate operands exceed
// the D16 field limits (the paper's Table 4 classification), measured on
// a DLXe execution.
type ImmStats struct {
	Total    int64
	CmpImm   int64 // compare-immediate instructions
	CmpImm8  int64 // of CmpImm, comparands that fit 8 bits (Section 3.3.3's proposal)
	WideALU  int64 // ALU immediates that exceed 5 unsigned bits
	WideMem  int64 // memory displacements beyond D16's reach
	WideMVI  int64 // move-immediates beyond 9 signed bits
	FarCalls int64 // J-type calls/jumps (D16 uses a pool load + register jump)
}

// Exec implements sim.Observer.
func (s *ImmStats) Exec(pc uint32, in isa.Instr) {
	s.Total++
	switch {
	case in.Op == isa.CMP && in.HasImm:
		s.CmpImm++
		if in.Imm >= 0 && in.Imm <= 255 {
			s.CmpImm8++
		}
	case in.Op == isa.MVI && (in.Imm < -256 || in.Imm > 255):
		s.WideMVI++
	case in.Op == isa.MVHI:
		s.WideMVI++
	case in.Op == isa.ANDI || in.Op == isa.ORI || in.Op == isa.XORI:
		s.WideALU++
	case (in.Op == isa.ADDI || in.Op == isa.SUBI) && (in.Imm < 0 || in.Imm > 31):
		s.WideALU++
	case in.Op.IsLoad() || in.Op.IsStore():
		sub := in.Op != isa.LD && in.Op != isa.ST
		if sub && in.Imm != 0 {
			s.WideMem++
		} else if !sub && (in.Imm < 0 || in.Imm > 124) {
			s.WideMem++
		}
	case (in.Op == isa.J || in.Op == isa.JL) && in.HasImm:
		s.FarCalls++
	}
}

// Load implements sim.Observer.
func (s *ImmStats) Load(addr uint32, size uint32) {}

// Store implements sim.Observer.
func (s *ImmStats) Store(addr uint32, size uint32) {}

// Lab memoizes measurements across experiments and executes them
// through a jobs.Scheduler, so the same harness serves three shapes of
// caller:
//
//   - sequential experiments (NewLab: an inline scheduler executes each
//     point on the calling goroutine, exactly the pre-scheduler order),
//   - parallel sweeps (NewParallelLab: points fan out across a worker
//     pool; identical in-flight points coalesce),
//   - services (NewLabWith: the caller shapes queue depth, timeouts and
//     metrics, and uses the Try ticket API for backpressure).
//
// Memoization is two-layered. Compiles are memoized per benchmark×ISA
// in one-shot flights. Runs live in the scheduler's content-addressed
// result cache, keyed by a hash of the program image plus the request's
// observers, so repeated submissions — including ones arriving over the
// batch HTTP API — are served without re-simulating.
type Lab struct {
	sched *jobs.Scheduler
	mu    sync.Mutex
	comp  map[string]*flight[*mcc.Compiled]
	runs  map[string]*Measurement // measure results by bench|spec, for enumeration
	errs  map[string]error        // failed measure runs, by bench|spec
}

// flight is a one-shot memoization cell: the first caller runs fn,
// every later or concurrent caller shares the outcome.
type flight[T any] struct {
	once sync.Once
	val  T
	err  error
}

func flightDo[T any](l *Lab, m map[string]*flight[T], k string, fn func() (T, error)) (T, error) {
	l.mu.Lock()
	f, ok := m[k]
	if !ok {
		f = &flight[T]{}
		m[k] = f
	}
	l.mu.Unlock()
	f.once.Do(func() { f.val, f.err = fn() })
	return f.val, f.err
}

// NewLab returns a sequential measurement harness: points execute
// inline on the calling goroutine, preserving the exact behavior and
// ordering of a scheduler-free run.
func NewLab() *Lab { return NewLabWith(jobs.New(jobs.Config{})) }

// NewParallelLab returns a harness whose points execute on a pool of
// the given number of workers, with scheduler metrics published in the
// process-wide telemetry registry.
func NewParallelLab(workers int) *Lab {
	return NewLabWith(jobs.New(jobs.Config{
		Workers:    workers,
		QueueDepth: 4*workers + 64,
		Registry:   telemetry.Default(),
	}))
}

// NewLabWith returns a harness running on a caller-shaped scheduler.
func NewLabWith(s *jobs.Scheduler) *Lab {
	return &Lab{
		sched: s,
		comp:  map[string]*flight[*mcc.Compiled]{},
		runs:  map[string]*Measurement{},
		errs:  map[string]error{},
	}
}

// Scheduler returns the lab's job scheduler (for metrics registration
// and graceful shutdown).
func (l *Lab) Scheduler() *jobs.Scheduler { return l.sched }

func key(b *bench.Benchmark, spec *isa.Spec) string { return b.Name + "|" + spec.Name }

// Compile compiles (with memoization) one benchmark for one target.
// Compilation runs on the calling goroutine — it is cheap relative to
// simulation and its output is needed to compute the run's content key.
func (l *Lab) Compile(b *bench.Benchmark, spec *isa.Spec) (*mcc.Compiled, error) {
	return flightDo(l, l.comp, key(b, spec), func() (*mcc.Compiled, error) {
		return mcc.Compile(b.Name+".mc", b.Source, spec)
	})
}

// hashImage folds everything execution-relevant about a linked program
// image into h: the encoding, the entry state and the text and data
// segments — plus the verifier rule-set version, so that results
// admitted under an older verifier are invalidated when the rules
// change.
func hashImage(h *jobs.Hasher, img *prog.Image) *jobs.Hasher {
	return h.Int(int64(verify.Version)).
		Int(int64(img.Enc)).Bool(img.Cmp8).Int(int64(img.Entry)).
		Int(int64(img.BSS)).Bytes(img.Text).Bytes(img.Data)
}

// Observe selects the observers one run request attaches to its single
// execution. Every field is part of the request's content address.
type Observe struct {
	Buses   []uint32        // cacheless fetch-bus widths (memsys.NoCache)
	Imm     bool            // the immediate-field classifier
	Caches  []cache.Config  // split I/D cache systems, one geometry for both sides
	Engines []AccountConfig // cycle-level pipeline engines
	PerPC   bool            // per-PC attribution on every engine, plus the symbol table
}

// AccountConfig describes one pipeline engine's memory configuration by
// value (so it can key the result cache); CacheBytes > 0 selects the
// cached interface with the paper's cache organization.
type AccountConfig struct {
	BusBytes    uint32
	WaitStates  int64
	SharedPort  bool
	CacheBytes  uint32
	MissPenalty int64
}

// measureKind names the standard measurement, the only request kind
// whose results are memoized for Measurements, Summary and Points.
const measureKind = "measure"

// standard is the standard measurement's observer set: both fetch-bus
// widths and the immediate-field classifier.
var standard = Observe{Buses: []uint32{4, 8}, Imm: true}

// Measure compiles and runs one benchmark under one configuration (with
// memoization), attaching the standard observers.
func (l *Lab) Measure(b *bench.Benchmark, spec *isa.Spec) (*Measurement, error) {
	return wait(l.MeasureTicket(context.Background(), b, spec))
}

// MeasureTicket submits the measurement as a job and returns its
// ticket without waiting, so callers can fan a set of points out across
// the lab's workers and collect them in a deterministic order. A full
// queue blocks until space frees or ctx ends.
func (l *Lab) MeasureTicket(ctx context.Context, b *bench.Benchmark, spec *isa.Spec) (*jobs.Ticket, error) {
	return l.run(ctx, measureKind, b, spec, standard, false)
}

// TryMeasureTicket is MeasureTicket with fail-fast backpressure: a full
// queue returns jobs.ErrOverloaded instead of blocking (servers map it
// to 503).
func (l *Lab) TryMeasureTicket(ctx context.Context, b *bench.Benchmark, spec *isa.Spec) (*jobs.Ticket, error) {
	return l.run(ctx, measureKind, b, spec, standard, true)
}

// CacheSweep runs one benchmark with a split I/D cache system per
// geometry, all attached to a single execution (Measurement.Caches).
func (l *Lab) CacheSweep(b *bench.Benchmark, spec *isa.Spec, cfgs []cache.Config) (*Measurement, error) {
	return wait(l.run(context.Background(), "cache-sweep", b, spec, Observe{Caches: cfgs}, false))
}

// PipelineRun runs one benchmark under the event-driven cycle-level
// pipeline model, one engine per memory configuration, all attached to
// a single execution (Measurement.Engines).
func (l *Lab) PipelineRun(b *bench.Benchmark, spec *isa.Spec, cfgs []AccountConfig) (*Measurement, error) {
	return wait(l.run(context.Background(), "pipeline-run", b, spec, Observe{Engines: cfgs}, false))
}

// Account is PipelineRun with per-PC cycle attribution on every engine
// and the image's symbol table to fold it per function.
func (l *Lab) Account(b *bench.Benchmark, spec *isa.Spec, cfgs []AccountConfig) (*Measurement, error) {
	return wait(l.AccountTicket(context.Background(), b, spec, cfgs))
}

// AccountTicket submits an accounted run without waiting — the fan-out
// form of Account, used by the sweep engine for cached-memory cells.
func (l *Lab) AccountTicket(ctx context.Context, b *bench.Benchmark, spec *isa.Spec, cfgs []AccountConfig) (*jobs.Ticket, error) {
	return l.run(ctx, "account-run", b, spec, Observe{Engines: cfgs, PerPC: true}, false)
}

// BusProfileTicket submits one execution observed through cacheless
// models of several bus widths at once, from which PointsOver expands
// any wait-state grid: a sweep's B-bus × W-wait-state grid costs one
// run, not B×W.
func (l *Lab) BusProfileTicket(ctx context.Context, b *bench.Benchmark, spec *isa.Spec, buses []uint32) (*jobs.Ticket, error) {
	return l.run(ctx, "bus-profile", b, spec, Observe{Buses: buses}, false)
}

// wait is the synchronous form of a submitted run.
func wait(t *jobs.Ticket, err error) (*Measurement, error) {
	if err != nil {
		return nil, err
	}
	v, err := t.Wait(context.Background())
	if err != nil {
		return nil, err
	}
	return v.(*Measurement), nil
}

// run submits one request: a single execution of b on spec carrying the
// observers o, named and traced as kind, and served from the
// scheduler's content-addressed cache when an identical request already
// ran. try selects fail-fast backpressure (jobs.ErrOverloaded) over
// blocking on a full queue.
func (l *Lab) run(ctx context.Context, kind string, b *bench.Benchmark, spec *isa.Spec, o Observe, try bool) (*jobs.Ticket, error) {
	c, err := l.Compile(b, spec)
	if err != nil {
		return nil, err
	}
	k := key(b, spec)
	if kind == measureKind {
		l.mu.Lock()
		err = l.errs[k]
		l.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	submit := l.sched.Submit
	if try {
		submit = l.sched.TrySubmit
	}
	return submit(ctx, jobs.Job{
		Name: kind + " " + k,
		Key:  runKey(kind, b, spec, o, c.Image),
		Fn: func(context.Context) (any, error) {
			m, err := execute(kind, b, spec, c, o)
			if err != nil {
				err = fmt.Errorf("core: %s %s on %s: %w", kind, b.Name, spec, err)
			}
			if kind == measureKind {
				l.mu.Lock()
				if err != nil {
					l.errs[k] = err
				} else {
					l.runs[k] = m
				}
				l.mu.Unlock()
			}
			if err != nil {
				return nil, err
			}
			return m, nil
		},
	})
}

// runKey is the content address of one request: its kind, the identity
// labels the Measurement embeds, the run budget, every observer and the
// program image. Each list is length-prefixed so no two requests of a
// kind share a byte stream.
func runKey(kind string, b *bench.Benchmark, spec *isa.Spec, o Observe, img *prog.Image) jobs.Key {
	h := jobs.NewHasher(kind).String(b.Name).String(spec.Name).Int(b.MaxInstrs).
		Bool(o.Imm).Bool(o.PerPC).Int(int64(len(o.Buses)))
	for _, w := range o.Buses {
		h.Int(int64(w))
	}
	h.Int(int64(len(o.Caches)))
	for _, c := range o.Caches {
		h.Int(int64(c.Size)).Int(int64(c.BlockBytes)).Int(int64(c.SubBytes)).Int(int64(c.Assoc)).
			Bool(c.WriteThrough).Bool(c.NoWriteAllocate).Bool(c.NoPrefetch)
	}
	h.Int(int64(len(o.Engines)))
	for _, e := range o.Engines {
		h.Int(int64(e.BusBytes)).Int(e.WaitStates).Bool(e.SharedPort).Int(int64(e.CacheBytes)).Int(e.MissPenalty)
	}
	return hashImage(h, img).Key()
}

// execute is the job body of every request: it runs c once under a
// kind-named span with o's observers attached in a fixed order (buses,
// immediate classifier, caches, engines). It holds no lab locks:
// concurrent runs of distinct points are the scheduler's normal mode.
func execute(kind string, b *bench.Benchmark, spec *isa.Spec, c *mcc.Compiled, o Observe) (*Measurement, error) {
	attrs := []telemetry.Attr{telemetry.String("bench", b.Name), telemetry.String("config", spec.Name)}
	span := telemetry.StartSpan(kind, attrs...)
	defer span.End()
	machine, err := sim.Acquire(c.Image)
	if err != nil {
		return nil, err
	}
	defer sim.Release(machine)
	m := &Measurement{
		Bench:        b.Name,
		Spec:         spec,
		Size:         c.Image.Size(),
		TextBytes:    len(c.Image.Text),
		DataBytes:    len(c.Image.Data),
		PoolBytes:    c.Image.PoolBytes,
		StaticInstrs: c.Image.TextInstrs,
		Spills:       c.Spills,
		Image:        c.Image,
	}
	for _, w := range o.Buses {
		bus := memsys.NewNoCache(w)
		m.Buses = append(m.Buses, bus)
		machine.Attach(bus)
	}
	if o.Imm {
		machine.Attach(&m.Imm)
	}
	for _, cfg := range o.Caches {
		sys, err := cache.NewSystem(cfg, cfg)
		if err != nil {
			return nil, err
		}
		m.Caches = append(m.Caches, sys)
		machine.Attach(sys)
	}
	for _, ec := range o.Engines {
		pc := pipeline.Config{BusBytes: ec.BusBytes, WaitStates: ec.WaitStates,
			SharedPort: ec.SharedPort, MissPenalty: ec.MissPenalty}
		if ec.CacheBytes > 0 {
			cfg := cache.PaperConfig(ec.CacheBytes)
			if pc.Caches, err = cache.NewSystem(cfg, cfg); err != nil {
				return nil, err
			}
		}
		e := pipeline.New(pc)
		if o.PerPC {
			e.EnablePCAccounting()
		}
		m.Engines = append(m.Engines, e)
		machine.Attach(e)
	}
	if o.PerPC {
		m.Syms = prog.NewSymTable(c.Image)
	}
	rspan := telemetry.StartSpan("run", attrs...)
	err = machine.Run(b.MaxInstrs)
	rspan.End()
	if err != nil {
		return nil, err
	}
	m.Output = machine.Output.String()
	m.Stats = machine.Stats
	if b.Expect != "" && m.Output != b.Expect {
		return nil, fmt.Errorf("output %q, want %q", m.Output, b.Expect)
	}
	return m, nil
}

// Measurements returns every memoized measurement, sorted by benchmark
// then configuration (the export order of the suite summary).
func (l *Lab) Measurements() []*Measurement {
	l.mu.Lock()
	out := make([]*Measurement, 0, len(l.runs))
	for _, m := range l.runs { //detlint:ignore rangemap sorted immediately below
		out = append(out, m)
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		return out[i].Spec.Name < out[j].Spec.Name
	})
	return out
}

// SummaryRow is the machine-readable scalar summary of one measurement:
// the static and dynamic measures every experiment derives from, plus
// cacheless CPI at wait states 0–3 for both fetch-bus widths. One row
// per bench×config lands in repro's summary.json so the performance
// trajectory can be diffed across changes.
type SummaryRow struct {
	Bench        string `json:"bench"`
	Config       string `json:"config"`
	SizeBytes    int    `json:"size_bytes"`
	TextBytes    int    `json:"text_bytes"`
	PoolBytes    int    `json:"pool_bytes"`
	DataBytes    int    `json:"data_bytes"`
	StaticInstrs int    `json:"static_instrs"`
	Spills       int    `json:"spills"`
	Instrs       int64  `json:"instrs"`
	Interlocks   int64  `json:"interlocks"`
	Loads        int64  `json:"loads"`
	PoolLoads    int64  `json:"pool_loads"`
	Stores       int64  `json:"stores"`
	FetchWords   int64  `json:"fetch_words"`
	// CPIBus32/CPIBus64 index by wait states ℓ = 0..3.
	CPIBus32 []float64 `json:"cpi_bus32"`
	CPIBus64 []float64 `json:"cpi_bus64"`
}

// Summary converts one measurement to its exported scalar row.
func (m *Measurement) Summary() SummaryRow {
	row := SummaryRow{
		Bench:        m.Bench,
		Config:       m.Spec.Name,
		SizeBytes:    m.Size,
		TextBytes:    m.TextBytes,
		PoolBytes:    m.PoolBytes,
		DataBytes:    m.DataBytes,
		StaticInstrs: m.StaticInstrs,
		Spills:       m.Spills,
		Instrs:       m.Stats.Instrs,
		Interlocks:   m.Stats.Interlocks,
		Loads:        m.Stats.Loads,
		PoolLoads:    m.Stats.PoolLoads,
		Stores:       m.Stats.Stores,
		FetchWords:   m.Stats.FetchWords,
	}
	for l := int64(0); l <= 3; l++ {
		row.CPIBus32 = append(row.CPIBus32, m.CPI(4, l))
		row.CPIBus64 = append(row.CPIBus64, m.CPI(8, l))
	}
	return row
}

// Summary returns scalar rows for every memoized measurement.
func (l *Lab) Summary() []SummaryRow {
	ms := l.Measurements()
	rows := make([]SummaryRow, 0, len(ms))
	for _, m := range ms {
		rows = append(rows, m.Summary())
	}
	return rows
}

// RegisterMetrics publishes the measurement's scalars and its attached
// memory-interface models as live gauges under prefix (typically
// "<bench>.<config>.").
func (m *Measurement) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	stats := &m.Stats
	reg.RegisterFunc(prefix+"size_bytes", func() int64 { return int64(m.Size) })
	reg.RegisterFunc(prefix+"static_instrs", func() int64 { return int64(m.StaticInstrs) })
	reg.RegisterFunc(prefix+"spills", func() int64 { return int64(m.Spills) })
	reg.RegisterFunc(prefix+"instrs", func() int64 { return stats.Instrs })
	reg.RegisterFunc(prefix+"interlocks", func() int64 { return stats.Interlocks })
	reg.RegisterFunc(prefix+"data_ops", stats.DataOps)
	for _, bus := range m.Buses {
		bus.Register(reg, fmt.Sprintf("%sbus%d.", prefix, 8*bus.BusBytes))
	}
}

// Suite returns the benchmark suite (re-exported for callers that only
// import core).
func Suite() []*bench.Benchmark { return bench.All() }

// Configs returns the paper's five compiler configurations.
func Configs() []*isa.Spec { return isa.PaperConfigs() }
