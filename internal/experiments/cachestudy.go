package experiments

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
)

// The instruction-cache experiments of Section 4.1 and Appendix A.3:
// Figures 16-19 and Tables 13-16, on the three cache benchmarks
// (assem, ipl, latex).

func init() {
	register("fig16", "Figure 16: instruction cache miss rates (1K-16K)", figMissRates)
	register("fig17", "Figure 17: performance with 4K instruction and data caches", func(c *Ctx) error {
		return figCPIvsPenalty(c, 4<<10)
	})
	register("fig18", "Figure 18: performance with 16K instruction and data caches", func(c *Ctx) error {
		return figCPIvsPenalty(c, 16<<10)
	})
	register("fig19", "Figure 19: instruction traffic with caches (words/cycle)", figCacheTraffic)
	register("tab13", "Table 13: traffic and interlocks for cache benchmarks", tabCacheBench)
	register("tab14", "Table 14: cache miss rates for assem (8-byte sub-blocks)", func(c *Ctx) error {
		return tabMissRates(c, "assem")
	})
	register("tab15", "Table 15: cache miss rates for ipl", func(c *Ctx) error {
		return tabMissRates(c, "ipl")
	})
	register("tab16", "Table 16: cache miss rates for latex", func(c *Ctx) error {
		return tabMissRates(c, "latex")
	})
}

var cacheSizes = []uint32{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10}

func paperSweep() []cache.Config {
	var cfgs []cache.Config
	for _, s := range cacheSizes {
		cfgs = append(cfgs, cache.PaperConfig(s))
	}
	return cfgs
}

// cacheSweepBoth runs one cache sweep for one benchmark on both
// encodings and returns the cache systems, one per geometry.
func (c *Ctx) cacheSweepBoth(b *bench.Benchmark, cfgs []cache.Config) (d16, dlxe []*cache.System, err error) {
	sd, err := c.Lab.CacheSweep(b, cfgD16, cfgs)
	if err != nil {
		return nil, nil, err
	}
	sx, err := c.Lab.CacheSweep(b, cfgX323, cfgs)
	if err != nil {
		return nil, nil, err
	}
	return sd.Caches, sx.Caches, nil
}

// sweepBoth runs the standard-geometry sweep for one benchmark on both
// encodings.
func (c *Ctx) sweepBoth(b *bench.Benchmark) (d16, dlxe []*cache.System, md, mx *core.Measurement, err error) {
	if d16, dlxe, err = c.cacheSweepBoth(b, paperSweep()); err != nil {
		return
	}
	if md, err = c.Lab.Measure(b, cfgD16); err != nil {
		return
	}
	mx, err = c.Lab.Measure(b, cfgX323)
	return
}

// figMissRates reproduces Figure 16: per-instruction I-cache miss rates
// against cache size (paper: D16 well below DLXe at every size).
func figMissRates(c *Ctx) error {
	c.printf("Instruction cache miss rates per instruction (32B blocks, 4B sub-blocks)\n\n")
	for _, b := range bench.CacheBenchmarks() {
		d16, dlxe, _, _, err := c.sweepBoth(b)
		if err != nil {
			return err
		}
		c.printf("%s:\n", b.Name)
		t := &table{header: []string{"cache size", "D16", "DLXe"}}
		for i, s := range cacheSizes {
			t.row(fmt.Sprintf("%dK", s>>10),
				f3(d16[i].I.Stats.MissRate()), f3(dlxe[i].I.Stats.MissRate()))
		}
		c.render(t)
		c.printf("\n")
	}
	return nil
}

// figCPIvsPenalty reproduces Figures 17/18: CPI against miss penalty for
// one cache size.
func figCPIvsPenalty(c *Ctx, size uint32) error {
	c.printf("CPI vs miss penalty with %dK split I/D caches\n\n", size>>10)
	idx := -1
	for i, s := range cacheSizes {
		if s == size {
			idx = i
		}
	}
	for _, b := range bench.CacheBenchmarks() {
		d16, dlxe, md, mx, err := c.sweepBoth(b)
		if err != nil {
			return err
		}
		c.printf("%s (path ratio D16/DLXe = %.2f):\n", b.Name,
			float64(md.Stats.Instrs)/float64(mx.Stats.Instrs))
		t := &table{header: []string{"miss penalty", "DLXe CPI", "D16 CPI", "D16 normalized"}}
		for _, p := range []int64{4, 8, 12, 16} {
			sx := dlxe[idx]
			sd := d16[idx]
			cpiX := sx.CPI(mx.Stats.Instrs, mx.Stats.Interlocks, p)
			cpiD := sd.CPI(md.Stats.Instrs, md.Stats.Interlocks, p)
			norm := float64(sd.Cycles(md.Stats.Instrs, md.Stats.Interlocks, p)) /
				float64(mx.Stats.Instrs)
			t.row(i64(p), f2(cpiX), f2(cpiD), f2(norm))
		}
		c.render(t)
		c.printf("\n")
	}
	return nil
}

// figCacheTraffic reproduces Figure 19: instruction memory traffic in
// words per cycle, with a miss penalty of 4 cycles, against cache size.
func figCacheTraffic(c *Ctx) error {
	c.printf("Instruction traffic in words/cycle (miss penalty 4) vs cache size\n\n")
	for _, b := range bench.CacheBenchmarks() {
		d16, dlxe, md, mx, err := c.sweepBoth(b)
		if err != nil {
			return err
		}
		c.printf("%s:\n", b.Name)
		t := &table{header: []string{"cache size", "D16", "DLXe"}}
		for i, s := range cacheSizes {
			wd := d16[i].IWordsPerCycle(md.Stats.Instrs, md.Stats.Interlocks, 4)
			wx := dlxe[i].IWordsPerCycle(mx.Stats.Instrs, mx.Stats.Interlocks, 4)
			t.row(fmt.Sprintf("%dK", s>>10), f3(wd), f3(wx))
		}
		c.render(t)
		c.printf("\n")
	}
	return nil
}

// tabCacheBench reproduces Table 13: base traffic and interlock data for
// the cache benchmarks.
func tabCacheBench(c *Ctx) error {
	c.printf("Traffic and interlocks for cache benchmarks\n\n")
	t := &table{header: []string{"program", "ISA", "instrs", "interlock rate",
		"fetch words", "data reads", "data writes"}}
	for _, b := range bench.CacheBenchmarks() {
		for _, spec := range []*isa.Spec{cfgD16, cfgX323} {
			m, err := c.Lab.Measure(b, spec)
			if err != nil {
				return err
			}
			t.row(b.Name, spec.Enc.String(), i64(m.Stats.Instrs),
				f3(float64(m.Stats.Interlocks)/float64(m.Stats.Instrs)),
				i64(m.Stats.FetchWords), i64(m.Stats.Loads), i64(m.Stats.Stores))
		}
	}
	c.render(t)
	return nil
}

// tabMissRates reproduces Tables 14-16: instruction, data-read and
// data-write miss rates across cache sizes and block sizes (8-byte
// sub-blocks, wrap-around read prefetch, no prefetch on write).
func tabMissRates(c *Ctx, name string) error {
	b := bench.ByName(name)
	var cfgs []cache.Config
	blocks := []uint32{8, 16, 32, 64}
	for _, s := range cacheSizes {
		for _, bl := range blocks {
			cfgs = append(cfgs, cache.PaperConfigSub(s, bl))
		}
	}
	d16, dlxe, err := c.cacheSweepBoth(b, cfgs)
	if err != nil {
		return err
	}
	c.printf("Cache miss rates for %s (per access; 8-byte sub-blocks)\n\n", name)
	t := &table{header: []string{"size", "block",
		"I D16", "I DLXe", "Dread D16", "Dread DLXe", "Dwrite D16", "Dwrite DLXe"}}
	i := 0
	for _, s := range cacheSizes {
		for _, bl := range blocks {
			t.row(fmt.Sprintf("%dK", s>>10), fmt.Sprintf("%d", bl),
				f3(d16[i].I.Stats.MissRate()), f3(dlxe[i].I.Stats.MissRate()),
				f3(d16[i].D.Stats.ReadMissRate()), f3(dlxe[i].D.Stats.ReadMissRate()),
				f3(d16[i].D.Stats.WriteMissRate()), f3(dlxe[i].D.Stats.WriteMissRate()))
			i++
		}
	}
	c.render(t)
	return nil
}
