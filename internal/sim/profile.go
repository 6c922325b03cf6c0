package sim

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
	"repro/internal/prog"
)

// Profile attributes executed instructions to the text symbols that
// contain them — a flat function-level profiler for compiled programs —
// and, by watching call and return events in the instruction stream,
// maintains a call-stack model that yields caller→callee edge counts and
// folded-stack output consumable by standard flamegraph tooling.
// Attach one to a Machine before running.
//
// Calls are jl instructions (immediate or register form — the callee is
// resolved from the address reached after the delay slot, so D16's
// pool-load+register far calls attribute correctly); returns are
// register jumps through the link register. The delay-slot instruction
// after either event is attributed to the function that contains it.
type Profile struct {
	tab    *prog.SymTable
	counts []int64
	total  int64

	// Call-stack model. stack holds symbol-table indices; pending counts
	// down the architectural delay slot after a call/return before the
	// stack mutates; curKey/batch accumulate folded samples for the
	// current stack so the hot path touches the map only on stack change.
	stack     []int
	pendingN  int
	pendingOp int // +1 push (call), -1 pop (return)
	curKey    string
	batch     int64
	folded    map[string]int64
	edges     map[edgeKey]int64
}

type edgeKey struct{ caller, callee int }

// NewProfile builds a profiler over an image's text symbols, with the
// filtering and deterministic ordering SymTable guarantees.
func NewProfile(img *prog.Image) *Profile {
	p := &Profile{
		tab:    prog.NewSymTable(img),
		folded: map[string]int64{},
		edges:  map[edgeKey]int64{},
	}
	p.counts = make([]int64, p.tab.Len())
	return p
}

// symIndex returns the index of the symbol containing pc, or -1.
func (p *Profile) symIndex(pc uint32) int { return p.tab.Index(pc) }

func (p *Profile) symName(i int) string { return p.tab.Name(i) }

// Exec implements Observer.
func (p *Profile) Exec(pc uint32, in isa.Instr) {
	p.total++

	// A call/return two instructions back has now cleared its delay slot:
	// the stack mutates before this instruction is attributed.
	if p.pendingN > 0 {
		p.pendingN--
		if p.pendingN == 0 {
			if p.pendingOp > 0 {
				callee := p.symIndex(pc)
				if len(p.stack) > 0 {
					p.edges[edgeKey{p.stack[len(p.stack)-1], callee}]++
				}
				p.push(callee)
			} else if len(p.stack) > 1 {
				p.pop()
			}
		}
	}

	i := p.symIndex(pc)
	if i >= 0 {
		p.counts[i]++
	}
	if len(p.stack) == 0 {
		p.push(i) // program entry roots the stack
	}
	p.batch++

	switch {
	case in.Op == isa.JL:
		p.pendingN, p.pendingOp = 2, +1
	case in.Op == isa.J && !in.HasImm && in.Rs1 == isa.RegLink:
		p.pendingN, p.pendingOp = 2, -1
	}
}

func (p *Profile) flush() {
	if p.batch > 0 {
		p.folded[p.curKey] += p.batch
		p.batch = 0
	}
}

func (p *Profile) push(i int) {
	p.flush()
	p.stack = append(p.stack, i)
	p.rekey()
}

func (p *Profile) pop() {
	p.flush()
	p.stack = p.stack[:len(p.stack)-1]
	p.rekey()
}

func (p *Profile) rekey() {
	var b strings.Builder
	for j, i := range p.stack {
		if j > 0 {
			b.WriteByte(';')
		}
		b.WriteString(p.symName(i))
	}
	p.curKey = b.String()
}

// Load implements Observer.
func (p *Profile) Load(addr uint32, size uint32) {}

// Store implements Observer.
func (p *Profile) Store(addr uint32, size uint32) {}

// Entry is one profile row.
type Entry struct {
	Name    string
	Instrs  int64
	Percent float64
}

// Top returns the hottest n functions.
func (p *Profile) Top(n int) []Entry {
	var out []Entry
	for i, c := range p.counts {
		if c > 0 {
			out = append(out, Entry{p.tab.Name(i), c, 100 * float64(c) / float64(p.total)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Instrs != out[j].Instrs {
			return out[i].Instrs > out[j].Instrs
		}
		return out[i].Name < out[j].Name
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// String renders the full profile.
func (p *Profile) String() string {
	var b strings.Builder
	for _, e := range p.Top(0) {
		fmt.Fprintf(&b, "%8.2f%% %12d  %s\n", e.Percent, e.Instrs, e.Name)
	}
	return b.String()
}

// Folded renders the stack-attributed samples in the folded format
// flamegraph tools consume: one "root;...;leaf count" line per distinct
// stack, sorted, one executed instruction per sample (their sum equals
// the run's executed-instruction count).
func (p *Profile) Folded() string {
	p.flush()
	keys := make([]string, 0, len(p.folded))
	for k := range p.folded { //detlint:ignore rangemap sorted immediately below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %d\n", k, p.folded[k])
	}
	return b.String()
}

// EdgeCount is one caller→callee arc of the dynamic call graph.
type EdgeCount struct {
	Caller string
	Callee string
	Count  int64
}

// Edges returns the dynamic call-graph arcs, attributed at call events,
// sorted by caller then callee.
func (p *Profile) Edges() []EdgeCount {
	out := make([]EdgeCount, 0, len(p.edges))
	for e, n := range p.edges { //detlint:ignore rangemap sorted immediately below

		out = append(out, EdgeCount{p.symName(e.caller), p.symName(e.callee), n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Caller != out[j].Caller {
			return out[i].Caller < out[j].Caller
		}
		return out[i].Callee < out[j].Callee
	})
	return out
}
