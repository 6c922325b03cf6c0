package static

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/verify"
)

// analysis carries the per-image state: the verifier's CFG plus the
// structural results (dominators, loop forest, execution caps) the
// bound computations consume.
type analysis struct {
	img  *prog.Image
	spec *isa.Spec
	cfg  *verify.CFG
	ib   uint32

	funcs   []*funcInfo
	byEntry map[uint32]*funcInfo
	diags   []Diag
	dseen   map[string]bool
}

// funcInfo is one function's structural analysis.
type funcInfo struct {
	fc     *funcCFGView
	preds  [][]int
	rpo    []int // block indices in reverse postorder from the entry
	rpoNum []int // block index -> position in rpo
	idom   []int // immediate dominator per block (-1 above entry)
	loops  []*loopInfo
	loopOf []int // innermost loop index per block, -1 outside loops
	depth  []int // loop-nesting depth per block

	// maxTop is set when the function's upper bound is ⊤ for a
	// structural reason (irreducible flow, unresolved jump or call).
	maxTop bool
}

// funcCFGView aliases the verifier's FuncCFG for brevity.
type funcCFGView = verify.FuncCFG

// loopInfo is one natural loop (back edges merged per header).
type loopInfo struct {
	head     int
	body     map[int]bool
	bodyList []int // body block indices, ascending
	backs    []int // back-edge source block indices, ascending
	bound    int64 // max header executions per loop entry; ⊤ = -1
	cap      int64 // max header executions per function invocation; memoized
	done     bool  // cap computed
	onCap    bool  // cap computation in progress (cycle guard)
}

func (a *analysis) diag(pc uint32, kind, msg string) {
	key := fmt.Sprintf("%d|%s|%s", pc, kind, msg)
	if a.dseen == nil {
		a.dseen = map[string]bool{}
	}
	if a.dseen[key] {
		return
	}
	a.dseen[key] = true
	a.diags = append(a.diags, Diag{PC: pc, Sym: a.img.SymbolAt(pc), Kind: kind, Msg: msg})
}

// build runs the structural analysis over every function.
func (a *analysis) build() {
	a.byEntry = map[uint32]*funcInfo{}
	for _, fc := range a.cfg.Funcs {
		fi := a.buildFunc(fc)
		a.funcs = append(a.funcs, fi)
		a.byEntry[fc.Entry] = fi
	}
	a.detectRecursion()
	a.sortDiags()
}

func (a *analysis) buildFunc(fc *funcCFGView) *funcInfo {
	n := len(fc.Blocks)
	fi := &funcInfo{fc: fc, preds: make([][]int, n)}

	succIdx := make([][]int, n)
	for i, b := range fc.Blocks {
		for _, s := range b.Succs {
			if j, ok := fc.Index[s]; ok {
				succIdx[i] = append(succIdx[i], j)
				fi.preds[j] = append(fi.preds[j], i)
			}
		}
		if b.Unresolved {
			fi.maxTop = true
			a.diag(b.PCs[len(b.PCs)-2], DiagUnresolvedJump,
				"indirect jump target not resolved by constant propagation; upper bound is ⊤")
		}
		if b.CallUnresolved {
			fi.maxTop = true
			a.diag(b.PCs[len(b.PCs)-2], DiagUnresolvedCall,
				"indirect call target not resolved by constant propagation; upper bound is ⊤")
		}
	}

	// Reverse postorder from the entry block.
	entry, ok := fc.Index[fc.Entry]
	if !ok || n == 0 {
		return fi
	}
	seen := make([]bool, n)
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		seen[b] = true
		for _, s := range succIdx[b] {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(entry)
	fi.rpo = make([]int, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		fi.rpo = append(fi.rpo, post[i])
	}
	fi.rpoNum = make([]int, n)
	for i := range fi.rpoNum {
		fi.rpoNum[i] = -1
	}
	for i, b := range fi.rpo {
		fi.rpoNum[b] = i
	}

	a.dominators(fi, succIdx, entry)
	a.findLoops(fi, succIdx, entry)
	a.inferBounds(fi, entry)
	return fi
}

// dominators computes immediate dominators with the classic iterative
// algorithm over reverse postorder (Cooper-Harvey-Kennedy).
func (a *analysis) dominators(fi *funcInfo, succIdx [][]int, entry int) {
	n := len(fi.fc.Blocks)
	fi.idom = make([]int, n)
	for i := range fi.idom {
		fi.idom[i] = -1
	}
	fi.idom[entry] = entry

	intersect := func(b1, b2 int) int {
		for b1 != b2 {
			for fi.rpoNum[b1] > fi.rpoNum[b2] {
				b1 = fi.idom[b1]
			}
			for fi.rpoNum[b2] > fi.rpoNum[b1] {
				b2 = fi.idom[b2]
			}
		}
		return b1
	}
	for changed := true; changed; {
		changed = false
		for _, b := range fi.rpo {
			if b == entry {
				continue
			}
			newIdom := -1
			for _, p := range fi.preds[b] {
				if fi.rpoNum[p] < 0 || fi.idom[p] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && fi.idom[b] != newIdom {
				fi.idom[b] = newIdom
				changed = true
			}
		}
	}
}

// dominates reports whether block d dominates block b.
func (fi *funcInfo) dominates(d, b int) bool {
	for {
		if b == d {
			return true
		}
		next := fi.idom[b]
		if next < 0 || next == b {
			return false
		}
		b = next
	}
}

// findLoops classifies every retreating edge: to a dominator it is a
// back edge founding a natural loop; otherwise the flow is irreducible
// and the function's upper bound goes to ⊤.
func (a *analysis) findLoops(fi *funcInfo, succIdx [][]int, entry int) {
	byHead := map[int]*loopInfo{}
	var heads []int
	for _, u := range fi.rpo {
		for _, h := range succIdx[u] {
			if fi.rpoNum[h] < 0 || fi.rpoNum[h] > fi.rpoNum[u] {
				continue // forward or cross edge
			}
			if !fi.dominates(h, u) {
				fi.maxTop = true
				a.diag(fi.fc.Blocks[u].Start, DiagIrreducible,
					"retreating edge to a non-dominating block: irreducible control flow; upper bound is ⊤")
				continue
			}
			L := byHead[h]
			if L == nil {
				L = &loopInfo{head: h, body: map[int]bool{h: true}}
				byHead[h] = L
				heads = append(heads, h)
			}
			L.backs = append(L.backs, u)
			// Natural loop body: reverse flood from the back-edge source.
			stack := []int{u}
			for len(stack) > 0 {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if L.body[b] {
					continue
				}
				L.body[b] = true
				stack = append(stack, fi.preds[b]...)
			}
		}
	}
	sort.Ints(heads)
	for _, h := range heads {
		L := byHead[h]
		sort.Ints(L.backs)
		for b := range L.body { //detlint:ignore rangemap sorted immediately below
			L.bodyList = append(L.bodyList, b)
		}
		sort.Ints(L.bodyList)
		fi.loops = append(fi.loops, L)
	}
	// Innermost-first order (smallest body), deterministic tie-break by
	// header address order.
	sort.SliceStable(fi.loops, func(i, j int) bool {
		return len(fi.loops[i].body) < len(fi.loops[j].body)
	})

	n := len(fi.fc.Blocks)
	fi.loopOf = make([]int, n)
	fi.depth = make([]int, n)
	for i := range fi.loopOf {
		fi.loopOf[i] = -1
	}
	for b := 0; b < n; b++ {
		for li, L := range fi.loops {
			if L.body[b] {
				if fi.loopOf[b] < 0 {
					fi.loopOf[b] = li
				}
				fi.depth[b]++
			}
		}
	}
}

// inferBounds runs the counted-loop recognizer over every loop.
func (a *analysis) inferBounds(fi *funcInfo, entry int) {
	for _, L := range fi.loops {
		L.bound = a.loopBound(fi, L, entry)
		L.cap = top
		if L.bound == top {
			a.diag(fi.fc.Blocks[L.head].Start, DiagUnboundedLoop,
				"loop trip count not inferable (no mvi/ldc counted-loop idiom); upper bound is ⊤")
		}
	}
}

// loopBound recognizes the counted-loop idiom and returns the maximum
// header executions per loop entry, or ⊤.
//
// The idiom: the single back edge is a `bnz rX, header` whose counter
// rX is decremented exactly once per iteration by `subi rX, rX, 1` —
// either in the back-edge block before the branch (bound N: the branch
// tests the post-decrement value) or in its delay slot (bound N+1: the
// branch tests the pre-decrement value) — rX is defined nowhere else in
// the loop, and every entry edge's source block ends with rX holding a
// known constant N from an mvi, mvhi or ldc. Calls inside the loop are
// allowed only when rX is callee-saved (the verifier's stack discipline
// proves the callee preserves it).
func (a *analysis) loopBound(fi *funcInfo, L *loopInfo, entry int) int64 {
	if len(L.backs) != 1 || L.head == entry {
		// Multiple back edges, or a loop the invocation enters directly
		// (no preheader to read the trip count from).
		return top
	}
	u := fi.fc.Blocks[L.backs[0]]
	n := len(u.Instrs)
	if n < 2 {
		return top
	}
	ctrl, slot := u.Instrs[n-2], u.Instrs[n-1]
	ctrlPC := u.PCs[n-2]
	head := fi.fc.Blocks[L.head]
	if ctrl.Op != isa.BNZ || ctrlPC+uint32(ctrl.Imm) != head.Start {
		return top
	}
	rx := ctrl.Rs1
	if !rx.Valid() {
		return top
	}

	// Locate the single decrement.
	isDec := func(in isa.Instr) bool {
		return in.Op == isa.SUBI && in.Rd == rx && in.Rs1 == rx && in.Imm == 1
	}
	decIdx := -1
	for i := 0; i < n-2; i++ {
		if u.Instrs[i].Def() == rx {
			decIdx = i
		}
	}
	slotDec := false
	switch {
	case decIdx >= 0:
		if !isDec(u.Instrs[decIdx]) {
			return top
		}
	case isDec(slot):
		slotDec = true
		decIdx = n - 1
	default:
		return top
	}

	// rX must be defined nowhere else in the loop, and survive any call.
	for _, bi := range L.bodyList {
		blk := fi.fc.Blocks[bi]
		for i, in := range blk.Instrs {
			if bi == L.backs[0] && i == decIdx {
				continue
			}
			if in.Def() == rx {
				return top
			}
		}
		if blk.HasCall && (blk.CallUnresolved || !isa.CalleeSaved(rx)) {
			return top
		}
	}

	// Every entry edge must supply a constant trip count.
	var bound int64
	found := false
	for _, p := range fi.preds[L.head] {
		if L.body[p] {
			continue
		}
		c, ok := a.lastConstDef(fi.fc.Blocks[p], rx)
		if !ok {
			return top
		}
		v := int64(c)
		if slotDec {
			// Pre-decrement test: rX = N, N-1, ..., 0 — taken N times.
			if v < 0 {
				return top
			}
			v++
		} else if v < 1 {
			// Post-decrement test from N <= 0 wraps through zero.
			return top
		}
		if !found || v > bound {
			bound = v
		}
		found = true
	}
	if !found {
		return top
	}
	return bound
}

// lastConstDef returns the constant rX holds at the end of blk, when
// its last definition there is an immediate or literal-pool load.
func (a *analysis) lastConstDef(blk *verify.Block, rx isa.Reg) (int32, bool) {
	for i := len(blk.Instrs) - 1; i >= 0; i-- {
		in := blk.Instrs[i]
		if in.Def() != rx {
			continue
		}
		switch in.Op {
		case isa.MVI:
			return in.Imm, true
		case isa.MVHI:
			return in.Imm << 16, true
		case isa.LDC:
			return a.literal(blk.PCs[i], in.Imm)
		}
		return 0, false
	}
	return 0, false
}

// literal reads the 32-bit pool word an ldc at pc references — the same
// arithmetic the verifier's constant propagation uses.
func (a *analysis) literal(pc uint32, disp int32) (int32, bool) {
	t := int64(pc) + int64(disp)
	end := int64(isa.TextBase) + int64(len(a.img.Text))
	if t < int64(isa.TextBase) || t+4 > end || t%4 != 0 {
		return 0, false
	}
	return int32(binary.LittleEndian.Uint32(a.img.Text[t-int64(isa.TextBase):])), true
}

// blockCap bounds how many times block b executes per function
// invocation: 1 outside loops (a reducible CFG cannot revisit a block
// that is in no natural loop), otherwise the innermost loop's cap.
func (a *analysis) blockCap(fi *funcInfo, b int) int64 {
	li := fi.loopOf[b]
	if li < 0 {
		return 1
	}
	return a.loopCap(fi, li)
}

// loopCap bounds the loop header's executions per function invocation:
// the trip bound times the executions of every entry edge's source.
// Sibling-loop entries recurse; a cycle among siblings would imply an
// enclosing natural loop, so the guard only fires on flow findLoops
// already flagged.
func (a *analysis) loopCap(fi *funcInfo, li int) int64 {
	L := fi.loops[li]
	if L.done {
		return L.cap
	}
	if L.onCap || L.bound == top {
		return top
	}
	L.onCap = true
	defer func() { L.onCap = false }()

	entries := int64(0)
	entryIdx, ok := fi.fc.Index[fi.fc.Entry]
	if ok && L.head == entryIdx {
		entries = 1 // the invocation itself enters at the header
	}
	for _, p := range fi.preds[L.head] {
		if L.body[p] {
			continue
		}
		entries = tAdd(entries, a.blockCap(fi, p))
	}
	L.cap = tMul(L.bound, entries)
	L.done = true
	return L.cap
}

// detectRecursion walks the call graph and anchors a diagnostic at
// every call edge that closes a cycle. The bound computation handles
// recursion independently (its own on-stack guard); this pass exists so
// the ⊤ has a PC-accurate explanation.
func (a *analysis) detectRecursion() {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[uint32]int{}
	var walk func(*funcInfo)
	walk = func(fi *funcInfo) {
		color[fi.fc.Entry] = gray
		for _, blk := range fi.fc.Blocks {
			if !blk.HasCall || blk.CallUnresolved {
				continue
			}
			callee := a.byEntry[blk.CallTarget]
			if callee == nil {
				continue
			}
			switch color[callee.fc.Entry] {
			case gray:
				a.diag(blk.PCs[len(blk.PCs)-2], DiagRecursion,
					"call closes a recursion cycle through "+callee.fc.Name+"; upper bound is ⊤")
			case white:
				walk(callee)
			}
		}
		color[fi.fc.Entry] = black
	}
	for _, fi := range a.funcs {
		if color[fi.fc.Entry] == white {
			walk(fi)
		}
	}
}
