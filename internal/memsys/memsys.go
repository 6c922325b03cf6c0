// Package memsys models the cacheless memory interface of Section 4 and
// Appendix A.2 of the paper.
//
// Without an instruction cache, each fetch request returns a block of
// k instructions, where k = fetch-bus width / instruction size. The block
// is buffered: as long as requested instructions are in the buffer, no
// memory request is made. Every memory request (instruction or data)
// costs the processor a fixed number of wait-state cycles.
//
// The model is trace-driven: attach it to a sim.Machine as an Observer,
// run the program once, then evaluate Cycles for any wait-state value
// (request counts do not depend on the latency). The machine calls Exec
// directly for every fetch and, as every load or store is one request,
// adds the run's data operations to DRequests when the run returns.
package memsys

import (
	"repro/internal/isa"
	"repro/internal/telemetry"
)

// NoCache counts memory requests for a cacheless processor with a
// fetch buffer of one bus-width block.
type NoCache struct {
	// BusBytes is the fetch-bus width in bytes (4 or 8 in the paper).
	BusBytes uint32

	// IRequests is the number of instruction fetch requests (bus-block
	// granularity, buffer flushed implicitly by discontinuity).
	IRequests int64
	// DRequests is the number of data memory requests: each load or
	// store is one, so it equals the run's sim Stats.DataOps.
	DRequests int64

	have    bool
	bufAddr uint32
}

// NewNoCache returns a model for the given fetch-bus width in bytes.
func NewNoCache(busBytes uint32) *NoCache {
	return &NoCache{BusBytes: busBytes}
}

// K returns the number of instructions delivered per fetch request.
func (n *NoCache) K(enc isa.Encoding) int64 {
	return int64(n.BusBytes / enc.InstrBytes())
}

// Exec implements sim.Observer.
func (n *NoCache) Exec(pc uint32, _ isa.Instr) {
	block := pc &^ (n.BusBytes - 1)
	if !n.have || block != n.bufAddr {
		n.IRequests++
		n.bufAddr = block
		n.have = true
	}
}

// Requests returns total memory requests.
func (n *NoCache) Requests() int64 { return n.IRequests + n.DRequests }

// Register publishes the model's request counts as live gauges under
// prefix; the trace-driven fields stay the single source of truth and
// the observer hot path is untouched.
func (n *NoCache) Register(reg *telemetry.Registry, prefix string) {
	reg.RegisterFunc(prefix+"bus_bytes", func() int64 { return int64(n.BusBytes) })
	reg.RegisterFunc(prefix+"i_requests", func() int64 { return n.IRequests })
	reg.RegisterFunc(prefix+"d_requests", func() int64 { return n.DRequests })
	reg.RegisterFunc(prefix+"requests", n.Requests)
}

// Cycles evaluates the paper's Appendix A formula
//
//	Cycles = IC + Interlocks + Latency*(IRequests + DRequests)
//
// for a given wait-state count.
func (n *NoCache) Cycles(instrs, interlocks, waitStates int64) int64 {
	return instrs + interlocks + waitStates*n.Requests()
}

// CPI returns cycles per instruction at the given wait-state count.
func (n *NoCache) CPI(instrs, interlocks, waitStates int64) float64 {
	return float64(n.Cycles(instrs, interlocks, waitStates)) / float64(instrs)
}

// FetchesPerCycle returns the instruction-fetch bus saturation measure of
// Figure 15: fetch requests per processor cycle.
func (n *NoCache) FetchesPerCycle(instrs, interlocks, waitStates int64) float64 {
	return float64(n.IRequests) / float64(n.Cycles(instrs, interlocks, waitStates))
}
