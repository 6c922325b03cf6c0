// Package pipeline is an event-driven cycle-level timing model of the
// paper's five-stage machine with a single shared memory port.
//
// The paper evaluates performance with the closed-form estimate
//
//	Cycles = IC + Interlocks + Latency*(IRequests + DRequests)
//
// and notes (footnote 2) that it differs from their measured pipeline
// behaviour by less than 1% — slightly pessimistic because it assumes
// memory and FPU latencies never overlap. This package provides the
// measured side of that comparison: it tracks, per instruction, the
// issue cycle implied by operand readiness (load delay and FPU
// latencies), instruction-fetch completion through a bus-wide fetch
// buffer, and memory-port contention between instruction and data
// requests. Attach an Engine to a sim.Machine and compare Engine.Cycles
// with the memsys formula (the ablate-model experiment does exactly
// this).
//
// Beyond the totals, the engine attributes every cycle it charges to a
// cause bucket (see Bucket in account.go) with an exact invariant —
// the buckets sum to Cycles() — globally, per PC, and per function.
// Setting Config.Caches puts a split I/D cache pair in front of the
// memory interface, turning wait-state charges into per-miss penalty
// charges attributed to the cache-miss bucket.
//
// # Concurrency and ownership
//
// An Engine is owned by the single run it observes: it holds per-run
// mutable state (issue clock, fetch buffer, attribution tables) with no
// internal locking, and a Config.Caches system is likewise mutated by
// the run it is attached to. The package itself keeps no mutable
// package-level state — its only package vars are constant lookup
// tables — so any number of engines may run on distinct goroutines
// concurrently, one engine (and one cache.System) per machine, as the
// job scheduler's worker pool does. Engines are deterministic: the same
// image and config produce bit-identical cycle counts on every run
// (asserted by core's TestConcurrentRunsDeterministic under -race).
package pipeline

import (
	"repro/internal/cache"
	"repro/internal/decode"
	"repro/internal/isa"
)

// DrainCycles is the constant pipeline fill/drain tail added to the
// last instruction's issue cycle (WB of the last instruction).
const DrainCycles = 4

// Config fixes the memory interface.
type Config struct {
	// BusBytes is the fetch/memory bus width in bytes (4 or 8).
	BusBytes uint32
	// WaitStates is the extra bus cycles per memory request.
	WaitStates int64
	// SharedPort serializes instruction and data requests through one
	// memory port (a structural hazard the paper's closed-form estimate
	// ignores); the default models separate instruction and data paths,
	// matching the formula's assumptions.
	SharedPort bool
	// Caches, when non-nil, interposes a split I/D cache pair: fetch
	// buffer refills and data accesses probe the caches, hits cost no
	// wait cycles, and misses cost MissPenalty bus cycles (replacing
	// the flat WaitStates charge). Literal-pool loads probe the
	// instruction cache, mirroring cache.Bank's routing.
	Caches *cache.System
	// MissPenalty is the per-miss wait in cycles when Caches is set.
	MissPenalty int64
	// RecordDepth attaches a flight recorder to the engine: > 0 keeps a
	// fixed ring of that many most-recent attribution events (cheap
	// enough to leave always on), < 0 retains the full trace (short
	// runs), 0 disables recording. Recording never changes the cycle
	// results — it mirrors the exact charges the buckets receive.
	RecordDepth int
}

// regMeta decomposes one register's readiness window for attribution:
// the producer makes the value architecturally available at base
// (issue + result latency); con port-contention cycles and lat
// memory-latency cycles may push actual readiness past that.
type regMeta struct {
	base      int64
	con       int64
	lat       int64
	cause     Bucket // base-window stall cause: BLoadDelay or BFPU
	latBucket Bucket // latency-window stall cause: BDataWait or BCacheMiss
}

// Engine is the cycle-level model; it implements sim.Observer.
type Engine struct {
	cfg Config

	clock    int64 // cycle the most recent instruction issued
	iBusFree int64 // first cycle the instruction port is free
	dBusFree int64 // first cycle the data port is free

	bufAddr uint32
	bufOK   bool

	ready     [64]int64 // operand availability per register
	meta      [64]regMeta
	fpsrReady int64

	// pendAddr is the data address of the load/store currently being
	// executed (the Machine notifies Load/Store before Exec).
	pendAddr uint32
	pendOK   bool

	// Cycle attribution (see account.go).
	buckets    Breakdown
	perPC      []Breakdown // nil until EnablePCAccounting
	perPCFetch []int64
	fetchXfers int64     // bus transfers on the instruction side
	rec        *Recorder // flight recorder, nil when disabled

	// Counters.
	Instrs        int64
	FetchRequests int64
	DataRequests  int64
	FetchStall    int64 // issue cycles lost to instruction fetch
	DataBusStall  int64 // load-use delay added by bus contention
	Interlock     int64 // issue cycles lost to operand readiness
}

// New returns an engine for the given memory interface.
func New(cfg Config) *Engine {
	e := &Engine{cfg: cfg}
	switch {
	case cfg.RecordDepth > 0:
		e.rec = NewRecorder(cfg.RecordDepth)
	case cfg.RecordDepth < 0:
		e.rec = NewFullRecorder()
	}
	return e
}

// Exec implements the sim observer contract: it advances the model by
// one issued instruction, synthesizing the predecoded metadata on the
// fly. Hot paths that already hold a shared decode table call ExecOp
// directly; both entry points funnel into the same implementation, so
// they cannot diverge.
func (e *Engine) Exec(pc uint32, in isa.Instr) {
	e.ExecOp(pc, decode.Synth(in))
}

// ExecOp advances the model by one issued instruction given its
// predecoded micro-op. This is the devirtualized fast path the
// simulator uses when exactly one Engine is attached: no interface
// dispatch, and the operand/latency metadata comes precomputed from
// the shared table instead of being re-derived per dynamic instruction.
// op is passed by value: the 24-byte copy keeps every field access on
// the local stack frame (uninstrumented under the race detector, no
// aliasing barriers for the optimizer).
func (e *Engine) ExecOp(pc uint32, op decode.Op) {
	e.Instrs++
	issue := e.clock + 1

	// Instruction fetch: a miss in the one-block fetch buffer is a memory
	// request; the instruction cannot issue before the word arrives. With
	// caches, only an I-cache miss goes to memory.
	block := pc &^ (e.cfg.BusBytes - 1)
	if !e.bufOK || block != e.bufAddr {
		e.FetchRequests++
		toMem, cost, bucket := true, e.cfg.WaitStates, BFetchWait
		if e.cfg.Caches != nil {
			toMem, cost, bucket = e.cfg.Caches.I.Read(block), e.cfg.MissPenalty, BCacheMiss
		}
		if toMem {
			e.fetchXfers++
			if e.perPC != nil {
				e.pcRow(pc)
				e.perPCFetch[int(pc-isa.TextBase)/2]++
			}
			start := max64(e.iBusFree, issue)
			done := start + cost
			e.iBusFree = done + 1
			if e.cfg.SharedPort {
				e.dBusFree = e.iBusFree
			}
			if done > issue {
				// The refill occupies IF: contention first (waiting for
				// the port), then the transfer latency ending at done.
				delay := done - issue
				latPart := min64(delay, cost)
				e.charge(pc, bucket, latPart, StageIF, done)
				e.charge(pc, BPortContention, delay-latPart, StageIF, done-latPart)
				e.FetchStall += delay
				issue = done
			}
		}
		e.bufAddr, e.bufOK = block, true
	}

	// Operand interlocks (load delay slots, FPU latencies). The whole
	// stall is attributed to the register that releases the instruction
	// (the latest-ready one), split into its base / contention / latency
	// windows.
	preIssue := issue
	blocking := -1
	if op.U1 != decode.None {
		if t := e.ready[op.U1]; t > issue {
			issue = t
			blocking = int(op.U1)
		}
	}
	if op.U2 != decode.None {
		if t := e.ready[op.U2]; t > issue {
			issue = t
			blocking = int(op.U2)
		}
	}
	if op.Flags&decode.FRDSR != 0 && e.fpsrReady > issue {
		issue = e.fpsrReady
		blocking = -2 // FPSR
	}
	if stall := issue - preIssue; stall > 0 {
		// The stall windows tile [preIssue, issue-1]: the base cause
		// first, then port contention, then memory latency, so the
		// producer's timeline reads left to right in the trace lanes.
		e.Interlock += stall
		if blocking == -2 {
			e.charge(pc, BFPU, stall, StageEX, issue-1)
		} else {
			m := &e.meta[blocking]
			latPart := min64(stall, m.lat)
			conPart := min64(stall-latPart, m.con)
			e.charge(pc, m.latBucket, latPart, StageMEM, issue-1)
			e.charge(pc, BPortContention, conPart, StageMEM, issue-1-latPart)
			baseStage := StageID
			if m.cause == BFPU {
				baseStage = StageEX
			}
			e.charge(pc, m.cause, stall-latPart-conPart, baseStage, issue-1-latPart-conPart)
		}
	}
	e.clock = issue
	e.charge(pc, BUseful, 1, StageEX, issue)

	// Result latency (the shared metadata rule lives in decode.Meta; the
	// table's Lat column is isa.ResultLatency of the opcode).
	switch {
	case op.Flags&decode.FLoad != 0:
		// The MEM-stage access is a memory request through the shared
		// port; the loaded value is ready when the transfer completes.
		done, con, cost, bucket := e.dataAccess(issue, false)
		if d := op.Def; d != decode.None {
			e.ready[d] = done + 1
			e.meta[d] = regMeta{
				base:      issue + isa.LatLoad,
				con:       con,
				lat:       cost,
				cause:     BLoadDelay,
				latBucket: bucket,
			}
			e.DataBusStall += done + 1 - (issue + isa.LatLoad)
		}
	case op.Flags&decode.FStore != 0:
		e.dataAccess(issue, true)
	case op.Flags&decode.FFCmp != 0:
		e.fpsrReady = issue + isa.LatFCmp
	default:
		if d := op.Def; d != decode.None {
			lat := int64(op.Lat)
			e.ready[d] = issue + lat
			// Only multi-cycle producers can induce stalls; they are all
			// FPU results (converts included).
			e.meta[d] = regMeta{base: issue + lat, cause: BFPU, latBucket: BDataWait}
		}
	}
	e.pendOK = false
}

// Load implements sim.Observer: it records the access address for the
// cache probe of the instruction about to be accounted in Exec.
func (e *Engine) Load(addr uint32, size uint32) { e.pendAddr, e.pendOK = addr, true }

// Store implements sim.Observer (see Load).
func (e *Engine) Store(addr uint32, size uint32) { e.pendAddr, e.pendOK = addr, true }

// dataAccess charges one data memory request starting no earlier than
// the MEM stage of the instruction issued at `issue`. It returns the
// cycle the transfer completes plus the attribution decomposition of
// the window past issue+1: con port-contention cycles, cost latency
// cycles charged to bucket. Cache hits complete immediately without
// touching the port.
func (e *Engine) dataAccess(issue int64, isStore bool) (done, con, cost int64, bucket Bucket) {
	e.DataRequests++
	cost, bucket = e.cfg.WaitStates, BDataWait
	if s := e.cfg.Caches; s != nil {
		var miss bool
		switch {
		case isStore:
			miss = s.D.Write(e.pendAddr)
		case e.pendOK && e.pendAddr < isa.DataBase:
			miss = s.I.Read(e.pendAddr) // literal-pool load, I-stream locality
		default:
			miss = s.D.Read(e.pendAddr)
		}
		if !miss {
			return issue + 1, 0, 0, BCacheMiss
		}
		cost, bucket = e.cfg.MissPenalty, BCacheMiss
	}
	start := max64(e.dBusFree, issue+1)
	con = start - (issue + 1)
	done = start + cost
	e.dBusFree = done + 1
	if e.cfg.SharedPort {
		e.iBusFree = e.dBusFree
	}
	return done, con, cost, bucket
}

// Cycles returns total cycles including pipeline drain.
func (e *Engine) Cycles() int64 {
	if e.Instrs == 0 {
		return 0
	}
	return e.clock + DrainCycles
}

// CPI returns cycles per instruction.
func (e *Engine) CPI() float64 {
	if e.Instrs == 0 {
		return 0
	}
	return float64(e.Cycles()) / float64(e.Instrs)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
