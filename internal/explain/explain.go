// Package explain is the A/B drill-down behind `repro -explain` and
// simd's GET /v1/explain: it walks from a surface-level cycle diff down
// to annotated disassembly in one pass. Given two sides — each a
// compiler configuration name (re-measured on demand) or a .mcst store
// file — it pairs their points by (bench, bus, waits, cachekb)
// *ignoring the config name*, ranks the worst movers, then re-simulates
// the top movers with cycle-accounting engines to produce per-PC stall
// heatmaps and stall-cause-annotated disassembly for both sides.
//
// Everything here is deterministic: the same sides and query produce
// byte-identical reports (text and JSON), including under a parallel
// lab — the acceptance property the explain-smoke make target checks.
package explain

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dis"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/store"
)

// Query is one parsed explain request.
type Query struct {
	// A and B each name a side: a compiler configuration ("D16/16/2",
	// "d16", ...) or a path to a .mcst measurement store.
	A string
	B string

	// Selection narrows the paired surface (store.Filter semantics;
	// -1 numeric fields are wild).
	Bench   string
	Bus     int64
	Waits   int64
	CacheKB int64

	// Top is how many worst movers get the full drill-down.
	Top int
	// Rows caps each side's stall-heatmap rows per drill.
	Rows int
	// MissPenalty is the per-miss cycle cost used when re-simulating
	// cached (cachekb > 0) points.
	MissPenalty int64
	// Threshold is the relative cycle change counted as a regression
	// or improvement.
	Threshold float64
}

// NewQuery returns the default query: wild selection, 3 drills, 12 heat
// rows, the paper's 8-cycle miss penalty, 10% threshold.
func NewQuery() Query {
	return Query{Bus: -1, Waits: -1, CacheKB: -1, Top: 3, Rows: 12, MissPenalty: 8, Threshold: 0.10}
}

// queryKeys is the grammar (kept in one place for the error message).
const queryKeys = "a, b, bench, bus, waits, cachekb, top, rows, misspenalty, threshold"

// ParseQuery parses the explain grammar: whitespace- or comma-separated
// key=value terms. Example:
//
//	a=D16/16/2 b=DLXe/32/3 bench=queens waits=2 top=2 rows=8
func ParseQuery(s string) (Query, error) {
	q := NewQuery()
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r == ' ' || r == '\t' || r == '\n' || r == ','
	})
	for _, term := range fields {
		k, v, ok := strings.Cut(term, "=")
		if !ok || v == "" {
			return q, fmt.Errorf("explain: bad term %q (want key=value)", term)
		}
		num := func() (int64, error) {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				return 0, fmt.Errorf("explain: %s=%q: want a non-negative integer", k, v)
			}
			return n, nil
		}
		pos := func() (int, error) {
			n, err := num()
			if err == nil && n == 0 {
				return 0, fmt.Errorf("explain: %s=%q: want a positive integer", k, v)
			}
			return int(n), err
		}
		var err error
		switch strings.ToLower(k) {
		case "a":
			q.A = v
		case "b":
			q.B = v
		case "bench":
			q.Bench = v
		case "bus":
			q.Bus, err = num()
		case "waits":
			q.Waits, err = num()
		case "cachekb":
			q.CacheKB, err = num()
		case "top":
			q.Top, err = pos()
		case "rows":
			q.Rows, err = pos()
		case "misspenalty":
			q.MissPenalty, err = num()
		case "threshold":
			t, ferr := strconv.ParseFloat(v, 64)
			if ferr != nil || t <= 0 {
				err = fmt.Errorf("explain: threshold=%q: want a positive number", v)
			} else {
				q.Threshold = t
			}
		default:
			return q, fmt.Errorf("explain: unknown key %q (valid: %s)", k, queryKeys)
		}
		if err != nil {
			return q, err
		}
	}
	if q.A == "" || q.B == "" {
		return q, fmt.Errorf("explain: need both sides: a=<config|file.mcst> b=<config|file.mcst> (valid keys: %s)", queryKeys)
	}
	return q, nil
}

// filter returns the store filter of the query's selection terms.
func (q *Query) filter() store.Filter {
	f := store.NewFilter()
	f.Bench, f.BusBytes, f.WaitStates, f.CacheKB = q.Bench, q.Bus, q.Waits, q.CacheKB
	return f
}

// Side is one resolved surface: a single-config point set plus, when
// the config name maps to a known compiler configuration, the spec that
// lets the drill-down re-simulate its points.
type Side struct {
	Source string // as given in the query (config name or file path)
	Config string // the single configuration the points belong to
	Spec   *isa.Spec
	Points []store.Point
}

// ResolveSide materializes one side. A known configuration name is
// measured over the (filtered) benchmark suite via the lab — the same
// closed-form grid `repro -json` persists — anything else is read as a
// .mcst store file, which must reduce to one configuration under the
// query's selection.
func ResolveSide(lab *core.Lab, source string, q Query) (*Side, error) {
	if spec := core.ConfigByName(source); spec != nil {
		benches := bench.All()
		if q.Bench != "" {
			b := bench.ByName(q.Bench)
			if b == nil {
				return nil, fmt.Errorf("explain: unknown benchmark %q", q.Bench)
			}
			benches = []*bench.Benchmark{b}
		}
		f := q.filter()
		side := &Side{Source: source, Config: spec.Name, Spec: spec}
		for _, b := range benches {
			m, err := lab.Measure(b, spec)
			if err != nil {
				return nil, err
			}
			for _, p := range m.Points() {
				if f.Match(&p) {
					side.Points = append(side.Points, p)
				}
			}
		}
		if len(side.Points) == 0 {
			return nil, fmt.Errorf("explain: side %q matches no points under %q", source, f.String())
		}
		return side, nil
	}
	pts, err := store.ReadFile(source)
	if err != nil {
		return nil, fmt.Errorf("explain: side %q is neither a known config (%s) nor a readable store: %w",
			source, strings.Join(configNames(), ", "), err)
	}
	return SideFromPoints(source, pts, q)
}

// SideFromPoints builds a side from an in-memory point set (simd's
// a=store), canonicalizing and filtering it and requiring exactly one
// configuration to remain.
func SideFromPoints(source string, pts []store.Point, q Query) (*Side, error) {
	f := q.filter()
	var kept []store.Point
	for _, p := range store.Canon(pts) {
		if f.Match(&p) {
			kept = append(kept, p)
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("explain: side %q matches no points under %q", source, f.String())
	}
	seen := map[string]bool{}
	var configs []string
	for i := range kept {
		if !seen[kept[i].Config] {
			seen[kept[i].Config] = true
			configs = append(configs, kept[i].Config)
		}
	}
	sort.Strings(configs)
	if len(configs) > 1 {
		return nil, fmt.Errorf("explain: side %q holds %d configs (%s); add config-selecting terms (bench/bus/waits/cachekb) or split the store",
			source, len(configs), strings.Join(configs, ", "))
	}
	return &Side{
		Source: source,
		Config: configs[0],
		Spec:   core.ConfigByName(configs[0]),
		Points: kept,
	}, nil
}

func configNames() []string {
	names := []string{"d16", "dlxe"}
	for _, s := range core.Configs() {
		names = append(names, s.Name)
	}
	return names
}

// PairKey identifies one cell across the two sides: the point key with
// the config dimension removed, which is exactly what makes
// config-vs-config comparison possible.
type PairKey struct {
	Bench      string `json:"bench"`
	BusBytes   int64  `json:"bus_bytes"`
	WaitStates int64  `json:"wait_states"`
	CacheKB    int64  `json:"cache_kb"`
}

// String renders the key in query-grammar form.
func (k PairKey) String() string {
	return fmt.Sprintf("bench=%s bus=%d waits=%d cachekb=%d",
		k.Bench, k.BusBytes, k.WaitStates, k.CacheKB)
}

func pairKeyOf(p *store.Point) PairKey {
	return PairKey{p.Bench, p.BusBytes, p.WaitStates, p.CacheKB}
}

// Delta is one paired cell's A→B movement (B relative to baseline A).
type Delta struct {
	PairKey
	CyclesA int64   `json:"cycles_a"`
	CyclesB int64   `json:"cycles_b"`
	Delta   int64   `json:"delta"`
	Rel     float64 `json:"rel"`
	// BucketDelta is per-cause movement indexed like Point.Buckets;
	// WorstBucket names the bucket that grew the most (empty when none
	// grew).
	BucketDelta [store.NumBuckets]int64 `json:"bucket_delta"`
	WorstBucket string                  `json:"worst_bucket,omitempty"`
}

// SideInfo summarizes one side in the report header.
type SideInfo struct {
	Source string `json:"source"`
	Config string `json:"config"`
	Points int    `json:"points"`
}

// Report is the full explain answer, JSON-marshalable and rendered as
// text by WriteText.
type Report struct {
	A         SideInfo  `json:"a"`
	B         SideInfo  `json:"b"`
	Matched   int       `json:"matched"`
	OnlyA     []PairKey `json:"only_a,omitempty"`
	OnlyB     []PairKey `json:"only_b,omitempty"`
	Threshold float64   `json:"threshold"`
	Regressed int       `json:"regressed"`
	Improved  int       `json:"improved"`
	Deltas    []Delta   `json:"deltas"`
	Drills    []Drill   `json:"drills,omitempty"`
	Notes     []string  `json:"notes,omitempty"`
}

// Run resolves both sides and produces the report.
func Run(lab *core.Lab, q Query) (*Report, error) {
	sa, err := ResolveSide(lab, q.A, q)
	if err != nil {
		return nil, err
	}
	sb, err := ResolveSide(lab, q.B, q)
	if err != nil {
		return nil, err
	}
	return RunSides(lab, q, sa, sb)
}

// RunSides pairs two resolved sides, ranks movers, and drills into the
// worst ones (when both sides map to re-simulable configurations).
func RunSides(lab *core.Lab, q Query, sa, sb *Side) (*Report, error) {
	rep := &Report{
		A:         SideInfo{sa.Source, sa.Config, len(sa.Points)},
		B:         SideInfo{sb.Source, sb.Config, len(sb.Points)},
		Threshold: q.Threshold,
	}

	bIdx := map[PairKey]int{}
	for i := range sb.Points {
		bIdx[pairKeyOf(&sb.Points[i])] = i
	}
	seenB := make([]bool, len(sb.Points))
	for i := range sa.Points {
		pa := &sa.Points[i]
		k := pairKeyOf(pa)
		j, ok := bIdx[k]
		if !ok {
			rep.OnlyA = append(rep.OnlyA, k)
			continue
		}
		seenB[j] = true
		pb := &sb.Points[j]
		rep.Matched++
		d := Delta{PairKey: k, CyclesA: pa.Cycles, CyclesB: pb.Cycles, Delta: pb.Cycles - pa.Cycles}
		if pa.Cycles != 0 {
			d.Rel = float64(d.Delta) / float64(pa.Cycles)
		}
		var worst int64
		for bk := 0; bk < store.NumBuckets; bk++ {
			bd := pb.Buckets[bk] - pa.Buckets[bk]
			d.BucketDelta[bk] = bd
			if bd > worst {
				worst = bd
				d.WorstBucket = store.BucketNames[bk]
			}
		}
		switch {
		case d.Rel > q.Threshold:
			rep.Regressed++
		case d.Rel < -q.Threshold:
			rep.Improved++
		}
		rep.Deltas = append(rep.Deltas, d)
	}
	for j := range sb.Points {
		if !seenB[j] {
			rep.OnlyB = append(rep.OnlyB, pairKeyOf(&sb.Points[j]))
		}
	}
	sortKeys := func(ks []PairKey) {
		sort.Slice(ks, func(i, j int) bool { return ks[i].String() < ks[j].String() })
	}
	sortKeys(rep.OnlyA)
	sortKeys(rep.OnlyB)
	// Worst movers first: |Rel| descending, regressions before
	// equal-magnitude improvements, key as the tie-break (store.Diff's
	// ordering, so the two report layers agree).
	sort.SliceStable(rep.Deltas, func(i, j int) bool {
		ai, aj := abs(rep.Deltas[i].Rel), abs(rep.Deltas[j].Rel)
		if ai != aj {
			return ai > aj
		}
		if rep.Deltas[i].Rel != rep.Deltas[j].Rel {
			return rep.Deltas[i].Rel > rep.Deltas[j].Rel
		}
		return rep.Deltas[i].PairKey.String() < rep.Deltas[j].PairKey.String()
	})

	if sa.Spec == nil || sb.Spec == nil {
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("drill-down skipped: config %q or %q is not a known compiler configuration, so the movers cannot be re-simulated",
				sa.Config, sb.Config))
		return rep, nil
	}
	n := q.Top
	if n > len(rep.Deltas) {
		n = len(rep.Deltas)
	}
	if n > 0 {
		rep.Notes = append(rep.Notes,
			"drill cycles are engine-measured (port contention and latency overlap modeled) and may differ from the surface's closed-form cycles by design; see docs/EXPLAIN.md")
	}
	for i := 0; i < n; i++ {
		dr, err := drill(lab, q, sa, sb, rep.Deltas[i])
		if err != nil {
			return nil, err
		}
		rep.Drills = append(rep.Drills, *dr)
	}
	return rep, nil
}

// EngineSummary is one side's re-simulated totals for a drilled cell.
type EngineSummary struct {
	Config  string                     `json:"config"`
	Cycles  int64                      `json:"cycles"`
	CPI     float64                    `json:"cpi"`
	Buckets [pipeline.NumBuckets]int64 `json:"buckets"`
}

// HeatRow is one line of the per-PC stall heatmap: a program counter,
// its containing function, its charged cycles, the stall share and the
// dominant stall cause, plus a proportional bar for terminal reading.
type HeatRow struct {
	PC     string `json:"pc"`
	Sym    string `json:"sym"`
	Cycles int64  `json:"cycles"`
	Stall  int64  `json:"stall"`
	Cause  string `json:"cause"`
	Bar    string `json:"bar"`
}

// DisLine is one annotated disassembly line: address, rendered
// instruction, charged cycles, stall cycles and dominant stall cause.
type DisLine struct {
	Addr   string `json:"addr"`
	Asm    string `json:"asm"`
	Cycles int64  `json:"cycles"`
	Stall  int64  `json:"stall"`
	Cause  string `json:"cause,omitempty"`
}

// Drill is the full drill-down of one mover: both sides re-simulated
// with cycle-accounting engines, their stall heatmaps, and the
// stall-annotated disassembly of the hottest shared function.
type Drill struct {
	PairKey
	Func    string        `json:"func"`
	EngineA EngineSummary `json:"engine_a"`
	EngineB EngineSummary `json:"engine_b"`
	HeatA   []HeatRow     `json:"heat_a"`
	HeatB   []HeatRow     `json:"heat_b"`
	DisA    []DisLine     `json:"dis_a"`
	DisB    []DisLine     `json:"dis_b"`
}

// drill re-simulates one paired cell on both configurations and builds
// its heatmaps and annotated listings.
func drill(lab *core.Lab, q Query, sa, sb *Side, d Delta) (*Drill, error) {
	b := bench.ByName(d.Bench)
	if b == nil {
		return nil, fmt.Errorf("explain: mover references unknown benchmark %q", d.Bench)
	}
	ac := core.AccountConfig{BusBytes: uint32(d.BusBytes), WaitStates: d.WaitStates}
	if d.CacheKB > 0 {
		ac.CacheBytes = uint32(d.CacheKB) * 1024
		ac.MissPenalty = q.MissPenalty
		ac.WaitStates = 0 // cached interface replaces flat wait states
	}
	dr := &Drill{PairKey: d.PairKey}
	var runs [2]*core.Measurement
	for i, s := range []*Side{sa, sb} {
		run, err := lab.Account(b, s.Spec, []core.AccountConfig{ac})
		if err != nil {
			return nil, err
		}
		runs[i] = run
	}
	eA, eB := runs[0].Engines[0], runs[1].Engines[0]
	dr.EngineA = engineSummary(sa.Config, eA)
	dr.EngineB = engineSummary(sb.Config, eB)
	dr.HeatA = heatRows(eA, runs[0].Syms, q.Rows)
	dr.HeatB = heatRows(eB, runs[1].Syms, q.Rows)
	dr.Func = hottestShared(eA, runs[0].Syms, eB, runs[1].Syms)
	if dr.Func != "" {
		dr.DisA = disLines(runs[0].Image, eA, dr.Func)
		dr.DisB = disLines(runs[1].Image, eB, dr.Func)
	}
	return dr, nil
}

func engineSummary(config string, e *pipeline.Engine) EngineSummary {
	s := EngineSummary{Config: config, Cycles: e.Cycles(), CPI: e.CPI()}
	bd := e.Breakdown()
	for b := 0; b < pipeline.NumBuckets; b++ {
		s.Buckets[b] = bd[b]
	}
	return s
}

// stallOf splits one attribution row into (total, stall, dominant
// stall cause): stall is everything but the useful issue cycle.
func stallOf(bd pipeline.Breakdown) (total, stall int64, cause string) {
	total = bd.Sum()
	stall = total - bd[pipeline.BUseful]
	var worst int64
	for b := 0; b < pipeline.NumBuckets; b++ {
		if b == int(pipeline.BUseful) {
			continue
		}
		if bd[b] > worst {
			worst = bd[b]
			cause = pipeline.Bucket(b).String()
		}
	}
	return total, stall, cause
}

// heatRows ranks the engine's per-PC rows by stall cycles and renders
// the top rows as the heatmap (bar lengths proportional to the worst
// row).
func heatRows(e *pipeline.Engine, st *prog.SymTable, rows int) []HeatRow {
	type hr struct {
		pc           uint32
		total, stall int64
		cause        string
	}
	var all []hr
	for _, row := range e.PerPC() {
		total, stall, cause := stallOf(row.Buckets)
		if stall > 0 {
			all = append(all, hr{row.PC, total, stall, cause})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].stall != all[j].stall {
			return all[i].stall > all[j].stall
		}
		return all[i].pc < all[j].pc
	})
	if len(all) > rows {
		all = all[:rows]
	}
	var out []HeatRow
	var max int64
	if len(all) > 0 {
		max = all[0].stall
	}
	for _, h := range all {
		width := int(20 * h.stall / max)
		if width < 1 {
			width = 1
		}
		out = append(out, HeatRow{
			PC:     fmt.Sprintf("%#06x", h.pc),
			Sym:    st.Lookup(h.pc),
			Cycles: h.total,
			Stall:  h.stall,
			Cause:  h.cause,
			Bar:    strings.Repeat("#", width),
		})
	}
	return out
}

// hottestShared picks the function to disassemble: the one with the
// largest combined cycle total across both sides, preferring functions
// present on both (ties by name).
func hottestShared(eA *pipeline.Engine, stA *prog.SymTable, eB *pipeline.Engine, stB *prog.SymTable) string {
	cycles := map[string]int64{}
	shared := map[string]int{}
	var names []string
	for _, side := range [][]pipeline.FuncAccount{eA.PerFunc(stA), eB.PerFunc(stB)} {
		for _, fa := range side {
			if _, ok := cycles[fa.Name]; !ok {
				names = append(names, fa.Name)
			}
			cycles[fa.Name] += fa.Cycles
			shared[fa.Name]++
		}
	}
	sort.Strings(names)
	best := ""
	for _, n := range names {
		if n == "?" {
			continue
		}
		if best == "" {
			best = n
			continue
		}
		bn, bb := shared[n] == 2, shared[best] == 2
		switch {
		case bn != bb:
			if bn {
				best = n
			}
		case cycles[n] > cycles[best]:
			best = n
		}
	}
	return best
}

// maxDisLines caps a listing so one huge function cannot flood the
// report; the tail is summarized in one line.
const maxDisLines = 48

// disLines renders the named function's annotated disassembly for one
// side: every instruction in the function's symbol range with its
// charged cycles, stall cycles and dominant stall cause.
func disLines(img *prog.Image, e *pipeline.Engine, name string) []DisLine {
	start, end, ok := funcRange(img, name)
	if !ok {
		return []DisLine{{Asm: fmt.Sprintf("; %s: no such symbol on this side", name)}}
	}
	rows := map[uint32]pipeline.Breakdown{}
	for _, row := range e.PerPC() {
		rows[row.PC] = row.Buckets
	}
	var out []DisLine
	skipped := 0
	for _, ent := range dis.Text(img) {
		if ent.Addr < start || ent.Addr >= end {
			continue
		}
		if len(out) >= maxDisLines {
			skipped++
			continue
		}
		line := DisLine{Addr: fmt.Sprintf("%#06x", ent.Addr)}
		if ent.Err != nil {
			line.Asm = fmt.Sprintf(".word %#x", ent.Raw)
		} else {
			line.Asm = ent.In.String()
		}
		total, stall, cause := stallOf(rows[ent.Addr])
		line.Cycles, line.Stall, line.Cause = total, stall, cause
		out = append(out, line)
	}
	if skipped > 0 {
		out = append(out, DisLine{Asm: fmt.Sprintf("; ... %d more instructions", skipped)})
	}
	return out
}

// funcRange computes [start, end) of a text symbol from the image's
// symbol map: end is the next non-dot text symbol (the same symbols
// prog.SymTable indexes) or the end of text.
func funcRange(img *prog.Image, name string) (start, end uint32, ok bool) {
	start, ok = img.Symbols[name]
	if !ok || start < isa.TextBase || start >= img.TextEnd() {
		return 0, 0, false
	}
	end = img.TextEnd()
	var names []string
	for n := range img.Symbols { //detlint:ignore rangemap sorted immediately below
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := img.Symbols[n]
		if strings.HasPrefix(n, ".") || a < isa.TextBase || a >= img.TextEnd() {
			continue
		}
		if a > start && a < end {
			end = a
		}
	}
	return start, end, true
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
