package experiments

import (
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/isa"
)

// The cacheless memory-interface experiments of Section 4: Figures 14
// and 15, Tables 11 and 12.

func init() {
	register("fig14", "Figure 14: normalized CPI for 32-bit and 64-bit fetch, no cache", figNoCacheCPI)
	register("fig15", "Figure 15: instruction fetch saturation, no instruction cache", figSaturation)
	register("tab11", "Table 11: DLXe/D16 performance, 32-bit fetch bus, no cache", func(c *Ctx) error {
		return tabCycleRatios(c, 4)
	})
	register("tab12", "Table 12: DLXe/D16 cycles, 64-bit fetch bus, no cache", func(c *Ctx) error {
		return tabCycleRatios(c, 8)
	})
}

var waitStates = []int64{0, 1, 2, 3}

// figNoCacheCPI reproduces Figure 14: suite-average CPI against wait
// states for both bus widths. "D16 normalized" divides D16 cycles by the
// DLXe path length, factoring out the instruction-count difference.
func figNoCacheCPI(c *Ctx) error {
	d16, err := c.suiteMeasurements(cfgD16)
	if err != nil {
		return err
	}
	x32, err := c.suiteMeasurements(cfgX323)
	if err != nil {
		return err
	}
	for _, bus := range []uint32{4, 8} {
		kD := d16["queens"].Bus(4).K(isa.EncD16)
		kX := x32["queens"].Bus(4).K(isa.EncDLXe)
		if bus == 8 {
			kD, kX = 2*kD, 2*kX
		}
		c.printf("\n%d-bit fetch, no cache (DLXe k=%d, D16 k=%d); suite-average CPI\n\n", bus*8, kX, kD)
		t := &table{header: []string{"wait states", "DLXe CPI", "D16 CPI", "D16 normalized"}}
		for _, l := range waitStates {
			var cx, cd, cn []float64
			for _, b := range bench.All() {
				mx, md := x32[b.Name], d16[b.Name]
				cx = append(cx, mx.CPI(bus, l))
				cd = append(cd, md.CPI(bus, l))
				cn = append(cn, float64(md.Cycles(bus, l))/float64(mx.Stats.Instrs))
			}
			t.row(i64(l), f2(mean(cx)), f2(mean(cd)), f2(mean(cn)))
		}
		c.render(t)
	}
	return nil
}

// figSaturation reproduces Figure 15: fetch requests per cycle.
func figSaturation(c *Ctx) error {
	d16, err := c.suiteMeasurements(cfgD16)
	if err != nil {
		return err
	}
	x32, err := c.suiteMeasurements(cfgX323)
	if err != nil {
		return err
	}
	for _, bus := range []uint32{4, 8} {
		c.printf("\n%d-bit fetch, no cache; suite-average fetches per cycle\n\n", bus*8)
		t := &table{header: []string{"wait states", "DLXe", "D16"}}
		for _, l := range waitStates {
			var fx, fd []float64
			for _, b := range bench.All() {
				mx, md := x32[b.Name], d16[b.Name]
				fx = append(fx, mx.Bus(bus).FetchesPerCycle(mx.Stats.Instrs, mx.Stats.Interlocks, l))
				fd = append(fd, md.Bus(bus).FetchesPerCycle(md.Stats.Instrs, md.Stats.Interlocks, l))
			}
			t.row(i64(l), f3(mean(fx)), f3(mean(fd)))
		}
		c.render(t)
	}
	return nil
}

// tabCycleRatios reproduces Tables 11/12: per-program DLXe/D16 total
// cycle ratios for wait states 0-3 (paper, 32-bit bus: mean 0.87 at l=0
// rising to 1.19 at l=3 — D16 wins with any nonzero wait state).
func tabCycleRatios(c *Ctx, busBytes uint32) error {
	d16, err := c.suiteMeasurements(cfgD16)
	if err != nil {
		return err
	}
	x32, err := c.suiteMeasurements(cfgX323)
	if err != nil {
		return err
	}
	c.printf("DLXe/D16 cycle ratios, %d-bit fetch bus (>1 means D16 is faster)\n\n", busBytes*8)
	t := &table{header: []string{"program", "l=0", "l=1", "l=2", "l=3"}}
	sums := make([]float64, len(waitStates))
	for _, b := range bench.All() {
		row := []string{b.Name}
		for i, l := range waitStates {
			r := ratioCycles(x32[b.Name], d16[b.Name], busBytes, l)
			sums[i] += r
			row = append(row, f2(r))
		}
		t.row(row...)
	}
	avg := []string{"MEAN"}
	for _, s := range sums {
		avg = append(avg, f2(s/float64(len(bench.All()))))
	}
	t.row(avg...)
	c.render(t)
	return nil
}

func ratioCycles(x, d *core.Measurement, busBytes uint32, l int64) float64 {
	return float64(x.Cycles(busBytes, l)) / float64(d.Cycles(busBytes, l))
}
