package cache

import "repro/internal/telemetry"

// System is a split instruction/data cache pair (Section 4.1's
// configuration: separate on-chip direct-mapped instruction and data
// caches). A Bank drives systems from an execution's reference stream;
// a pipeline engine probes its own system access by access.
type System struct {
	I *Cache
	D *Cache
}

// PaperConfig returns the paper's cache organization for a given size:
// direct-mapped, 32-byte blocks, sub-blocked, wrap-around read prefetch,
// no prefetch on writes. The Section 4.1.1 experiments use 4-byte
// sub-blocks within 32-byte blocks; the Appendix A.3 tables use 8-byte
// sub-blocks (see PaperConfigSub).
func PaperConfig(size uint32) Config {
	return Config{Size: size, BlockBytes: 32, SubBytes: 4, Assoc: 1}
}

// PaperConfigSub returns the Appendix A.3 organization: blocks of the
// given size with 8-byte sub-blocks.
func PaperConfigSub(size, blockBytes uint32) Config {
	return Config{Size: size, BlockBytes: blockBytes, SubBytes: 8, Assoc: 1}
}

// NewSystem builds a split I/D cache system with the same geometry for
// both sides.
func NewSystem(icfg, dcfg Config) (*System, error) {
	ic, err := New(icfg)
	if err != nil {
		return nil, err
	}
	dc, err := New(dcfg)
	if err != nil {
		return nil, err
	}
	return &System{I: ic, D: dc}, nil
}

// Misses returns total misses over both caches.
func (s *System) Misses() int64 { return s.I.Stats.Misses() + s.D.Stats.Misses() }

// Register publishes both caches' counters under prefix ("<p>icache.*"
// and "<p>dcache.*").
func (s *System) Register(reg *telemetry.Registry, prefix string) {
	s.I.Stats.Register(reg, prefix+"icache.")
	s.D.Stats.Register(reg, prefix+"dcache.")
}

// Cycles evaluates the paper's Appendix A.3 formula
//
//	Cycles = IC + Interlocks + MissPenalty*(IMiss + RMiss + WMiss)
func (s *System) Cycles(instrs, interlocks, missPenalty int64) int64 {
	return instrs + interlocks + missPenalty*s.Misses()
}

// CPI returns cycles per instruction at the given miss penalty.
func (s *System) CPI(instrs, interlocks, missPenalty int64) float64 {
	return float64(s.Cycles(instrs, interlocks, missPenalty)) / float64(instrs)
}

// IWordsPerCycle returns instruction memory traffic in words per cycle
// (Figure 19's measure).
func (s *System) IWordsPerCycle(instrs, interlocks, missPenalty int64) float64 {
	return float64(s.I.Stats.MemReadWords) / float64(s.Cycles(instrs, interlocks, missPenalty))
}
