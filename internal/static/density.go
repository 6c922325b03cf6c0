package static

import (
	"repro/internal/isa"
)

// Static density and fetch-traffic measures: everything here is a pure
// function of the image layout — no control flow, no timing.

// fetchWords counts the distinct bus-width blocks that hold at least
// one instruction slot in [start, end): the bus words an instruction
// fetch unit must stream to touch every static instruction once.
// Literal pools and padding inside the span are skipped — the fetch
// buffer never requests a block no instruction lives in.
func (a *analysis) fetchWords(start, end, bus uint32) int64 {
	var words int64
	last, have := uint32(0), false
	for pc := start; pc < end; pc += a.ib {
		if a.img.InNonCode(pc) {
			continue
		}
		// A wide instruction on a narrow bus (DLXe on the 16-bit bus)
		// covers several words; the scan is ascending, so tracking the
		// last counted word deduplicates shared blocks.
		for blk := pc &^ (bus - 1); blk <= (pc+a.ib-1)&^(bus-1); blk += bus {
			if !have || blk > last {
				words++
				last, have = blk, true
			}
		}
	}
	return words
}

// instrsIn counts instruction slots in [start, end).
func (a *analysis) instrsIn(start, end uint32) int64 {
	var n int64
	for pc := start; pc < end; pc += a.ib {
		if !a.img.InNonCode(pc) {
			n++
		}
	}
	return n
}

// pairCensus counts statically fusible adjacent pairs inside one
// function: a compare feeding the conditional branch right after it
// (cmp+bz/bnz) and a literal-pool load feeding the register jump right
// after it (ldc+j/jl/jz/jnz) — the macro-op fusion candidates a wider
// decode could issue as one operation. Pairs are keyed by the first
// instruction's address so the overlapping blocks a branch-into-delay-
// slot produces cannot double count.
func (a *analysis) pairCensus(fc *funcCFGView) (cmpBr, ldcJmp int64) {
	seen := map[uint32]bool{}
	for _, b := range fc.Blocks {
		for i := 0; i+1 < len(b.Instrs); i++ {
			pc := b.PCs[i]
			if b.PCs[i+1] != pc+a.ib || seen[pc] {
				continue
			}
			cur, nx := b.Instrs[i], b.Instrs[i+1]
			switch {
			case cur.Op == isa.CMP && (nx.Op == isa.BZ || nx.Op == isa.BNZ) &&
				nx.Rs1 == cur.Def():
				cmpBr++
				seen[pc] = true
			case cur.Op == isa.LDC && nx.Op.IsJump() && !nx.HasImm &&
				nx.Rs1 == cur.Def():
				ldcJmp++
				seen[pc] = true
			}
		}
	}
	return cmpBr, ldcJmp
}
