package cache

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// event is one observer event of a synthetic execution.
type event struct {
	kind byte // 'x' fetch, 'l' load, 's' store
	addr uint32
}

// randomConfig draws a valid configuration: sub-blocks of 4-16 bytes, up
// to 64 of them per block, associativity 1/2/4 and every write and
// prefetch policy.
func randomConfig(rng *rand.Rand) Config {
	sub := uint32(4) << rng.Intn(3)
	block := sub << rng.Intn(7)
	assoc := uint32(1) << rng.Intn(3)
	return Config{
		Size:            block * assoc << rng.Intn(6),
		BlockBytes:      block,
		SubBytes:        sub,
		Assoc:           assoc,
		WriteThrough:    rng.Intn(2) == 0,
		NoWriteAllocate: rng.Intn(2) == 0,
		NoPrefetch:      rng.Intn(4) == 0,
	}
}

// randomTrace draws an execution-shaped event stream: mostly sequential
// fetches with jumps, spins on one instruction long enough to overflow
// a reference's repeat count, literal-pool loads from the text segment,
// and data loads and stores.
func randomTrace(rng *rand.Rand, n int) []event {
	step := uint32(2) << rng.Intn(2)
	text := func() uint32 { return isa.TextBase + uint32(rng.Intn(16<<10))&^(step-1) }
	data := func() uint32 { return isa.DataBase + uint32(rng.Intn(16<<10))&^3 }
	pc := text()
	var tr []event
	for len(tr) < n {
		switch r := rng.Intn(100); {
		case r < 65:
			tr = append(tr, event{'x', pc})
			pc += step
		case r < 70:
			pc = text()
		case r < 71:
			for k := rng.Intn(3000); k >= 0; k-- {
				tr = append(tr, event{'x', pc})
			}
		case r < 76:
			tr = append(tr, event{'l', text() &^ 3})
		case r < 90:
			tr = append(tr, event{'l', data()})
		default:
			tr = append(tr, event{'s', data()})
		}
	}
	return tr
}

// TestBankMatchesPerAccess: over random traces and random sets of valid
// configurations, replaying through a Bank (chunked, repeat-compressed,
// direct-mapped batch path) leaves every cache's statistics equal to
// feeding it access by access with Read and Write.
func TestBankMatchesPerAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		var banked, ref []*System
		for n := 1 + rng.Intn(5); n > 0; n-- {
			cfg := randomConfig(rng)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("drew an invalid config: %v", err)
			}
			banked = append(banked, &System{I: MustNew(cfg), D: MustNew(cfg)})
			ref = append(ref, &System{I: MustNew(cfg), D: MustNew(cfg)})
		}
		bank := NewBank(banked)
		for _, e := range randomTrace(rng, 3*bankChunk+rng.Intn(bankChunk)) {
			switch e.kind {
			case 'x':
				bank.Exec(e.addr, isa.Instr{})
			case 'l':
				bank.Load(e.addr, 4)
			case 's':
				bank.Store(e.addr, 4)
			}
			for _, s := range ref {
				switch {
				case e.kind == 's':
					s.D.Write(e.addr)
				case e.kind == 'x' || e.addr < isa.DataBase:
					s.I.Read(e.addr)
				default:
					s.D.Read(e.addr)
				}
			}
		}
		bank.Drain()
		for i, s := range banked {
			if s.I.Stats != ref[i].I.Stats {
				t.Errorf("trial %d %+v: I stats %+v, per-access %+v", trial, s.I.Config(), s.I.Stats, ref[i].I.Stats)
			}
			if s.D.Stats != ref[i].D.Stats {
				t.Errorf("trial %d %+v: D stats %+v, per-access %+v", trial, s.D.Config(), s.D.Stats, ref[i].D.Stats)
			}
		}
	}
}
