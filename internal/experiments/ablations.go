package experiments

import (
	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/isa"
)

// Extension experiments beyond the paper's figures (DESIGN.md §6): cost
// accounting for D16's literal pools, the paper's Section 3.3.3 proposal
// of an 8-bit compare-immediate, a cache-organization sweep the paper
// holds fixed, and delay-slot scheduling effectiveness.

func init() {
	register("ablate-relax", "Ablation: D16 literal-pool and far-call costs", ablatePools)
	register("ablate-cmp8", "Ablation: Section 3.3.3's 8-bit compare-immediate proposal", ablateCmp8)
	register("ablate-d16plus", "Ablation: the D16+ variant built and measured", ablateD16Plus)
	register("ablate-cache", "Ablation: associativity and write policy (paper fixes direct-mapped)", ablateCache)
	register("ablate-nops", "Ablation: delay-slot fill effectiveness (nop fraction)", ablateNops)
}

// ablatePools accounts for what D16's literal-pool mechanism (LDC) costs:
// static pool bytes and dynamic pool loads.
func ablatePools(c *Ctx) error {
	c.printf("D16 literal pools: the cost of no direct call / large-constant format\n\n")
	ms, err := c.suiteMeasurements(cfgD16)
	if err != nil {
		return err
	}
	t := &table{header: []string{"program", "pool bytes", "% of text", "pool loads", "% of loads"}}
	var sb, sl []float64
	for _, b := range bench.All() {
		m := ms[b.Name]
		fb := float64(m.PoolBytes) / float64(m.TextBytes)
		fl := float64(m.Stats.PoolLoads) / float64(m.Stats.Loads)
		sb, sl = append(sb, fb), append(sl, fl)
		t.row(b.Name, i64(int64(m.PoolBytes)), pct(fb), i64(m.Stats.PoolLoads), pct(fl))
	}
	t.row("AVERAGE", "", pct(mean(sb)), "", pct(mean(sl)))
	c.render(t)
	return nil
}

// ablateCmp8 measures the dynamic frequency of compare-immediates whose
// comparand fits 8 bits: the upper bound on the paper's proposed D16
// compare-equal-immediate instruction (predicted "up to 2 percent").
func ablateCmp8(c *Ctx) error {
	c.printf("Compare-immediates that an 8-bit D16 cmp-imm would capture (DLXe/16/2 trace)\n\n")
	ms, err := c.suiteMeasurements(cfgX162)
	if err != nil {
		return err
	}
	t := &table{header: []string{"program", "cmp-imm %", "fits 8 bits %"}}
	var all, fit []float64
	for _, b := range bench.All() {
		s := ms[b.Name].Imm
		a := float64(s.CmpImm) / float64(s.Total)
		f := float64(s.CmpImm8) / float64(s.Total)
		all, fit = append(all, a), append(fit, f)
		t.row(b.Name, pct(a), pct(f))
	}
	t.row("AVERAGE", pct(mean(all)), pct(mean(fit)))
	c.render(t)
	c.printf("\nThe paper predicts the new instruction \"could improve D16 performance by\n")
	c.printf("up to 2 percent\"; the fits-8-bits column is that bound for this suite.\n")
	return nil
}

// ablateD16Plus builds the paper's proposed variant — one MVI bit traded
// for an 8-bit compare-equal immediate — and measures it directly
// (the paper only predicts "up to 2 percent").
func ablateD16Plus(c *Ctx) error {
	c.printf("D16+ (8-bit mvi + 8-bit compare-equal immediate) vs base D16\n\n")
	base, err := c.suiteMeasurements(cfgD16)
	if err != nil {
		return err
	}
	plus, err := c.suiteMeasurements(isa.D16Plus())
	if err != nil {
		return err
	}
	t := &table{header: []string{"program", "path ratio", "size ratio", "speedup %"}}
	var prs, srs []float64
	for _, b := range bench.All() {
		pr := float64(plus[b.Name].Stats.Instrs) / float64(base[b.Name].Stats.Instrs)
		sr := float64(plus[b.Name].Size) / float64(base[b.Name].Size)
		prs, srs = append(prs, pr), append(srs, sr)
		t.row(b.Name, f3(pr), f3(sr), pct(1-pr))
	}
	t.row("AVERAGE", f3(mean(prs)), f3(mean(srs)), pct(1-mean(prs)))
	c.render(t)
	c.printf("\nOutputs agree with the base suite (verified per run); the paper\n")
	c.printf("predicted up to 2%% — the narrower move-immediate claws some back.\n")
	return nil
}

// ablateCache sweeps the organization parameters the paper fixes:
// associativity 1/2/4 and write-back vs write-through, at 4K.
func ablateCache(c *Ctx) error {
	c.printf("4K I-cache miss rates under organizations the paper holds fixed\n\n")
	cfgs := []cache.Config{
		{Size: 4 << 10, BlockBytes: 32, SubBytes: 4, Assoc: 1},
		{Size: 4 << 10, BlockBytes: 32, SubBytes: 4, Assoc: 2},
		{Size: 4 << 10, BlockBytes: 32, SubBytes: 4, Assoc: 4},
		{Size: 4 << 10, BlockBytes: 32, SubBytes: 4, Assoc: 1, WriteThrough: true},
	}
	names := []string{"direct-mapped", "2-way", "4-way", "direct, write-through"}
	for _, b := range bench.CacheBenchmarks() {
		d16, dlxe, err := c.cacheSweepBoth(b, cfgs)
		if err != nil {
			return err
		}
		c.printf("%s:\n", b.Name)
		t := &table{header: []string{"organization", "I miss D16", "I miss DLXe",
			"D mem-writes D16", "D mem-writes DLXe"}}
		for i, n := range names {
			t.row(n, f3(d16[i].I.Stats.MissRate()), f3(dlxe[i].I.Stats.MissRate()),
				i64(d16[i].D.Stats.MemWriteWords), i64(dlxe[i].D.Stats.MemWriteWords))
		}
		c.render(t)
		c.printf("\n")
	}
	return nil
}

// ablateNops reports the fraction of executed instructions that are
// delay-slot nops, per configuration — the residual cost of the
// architectural delay slots after the scheduler's fill pass.
func ablateNops(c *Ctx) error {
	c.printf("Executed nop fraction (unfilled delay slots) per configuration\n\n")
	t := &table{header: []string{"program"}}
	specs := allConfigs()
	for _, s := range specs {
		t.header = append(t.header, s.Name)
	}
	sums := make([]float64, len(specs))
	for _, b := range bench.All() {
		row := []string{b.Name}
		for i, s := range specs {
			m, err := c.Lab.Measure(b, s)
			if err != nil {
				return err
			}
			f := float64(m.Stats.Nops) / float64(m.Stats.Instrs)
			sums[i] += f
			row = append(row, pct(f))
		}
		t.row(row...)
	}
	avg := []string{"AVERAGE"}
	for _, s := range sums {
		avg = append(avg, pct(s/float64(len(bench.All()))))
	}
	t.row(avg...)
	c.render(t)
	return nil
}
