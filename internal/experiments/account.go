package experiments

import (
	"fmt"
	"sort"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/pipeline"
)

// Account renders the cycle-accounting report behind `repro -account`:
// where the cycles go, not just how many there are. For every benchmark
// it attributes each simulated cycle of the cycle-level engine to a
// cause bucket — on D16 and DLXe, cacheless and behind the paper's 4KB
// caches — then emits the differential per-function D16-vs-DLXe report
// (cycles and instruction-fetch bytes), the attributed version of the
// paper's Figure 4/8 density-vs-traffic story.
func Account(c *Ctx) error { return accountBenches(c, bench.All()) }

func accountBenches(c *Ctx, benches []*bench.Benchmark) error {
	cfgs := []core.AccountConfig{
		{BusBytes: 4, WaitStates: 1},                    // cacheless reference
		{BusBytes: 4, CacheBytes: 4096, MissPenalty: 8}, // 4KB split I/D
	}
	colName := []string{"D16", "DLXe", "D16+4K$", "DLXe+4K$"}

	var totals []accountTotal
	for _, b := range benches {
		d16, err := c.Lab.Account(b, cfgD16, cfgs)
		if err != nil {
			return err
		}
		dlxe, err := c.Lab.Account(b, cfgX323, cfgs)
		if err != nil {
			return err
		}
		engines := []*pipeline.Engine{
			d16.Engines[0], dlxe.Engines[0], d16.Engines[1], dlxe.Engines[1],
		}

		c.printf("%s — cycle attribution (bus 4B, 1 wait state; cached columns: 4KB I/D, 8-cycle miss)\n", b.Name)
		t := &table{header: []string{"bucket"}}
		for _, n := range colName {
			t.header = append(t.header, n, "%")
		}
		var bds []pipeline.Breakdown
		for i, e := range engines {
			bd := e.Breakdown()
			if err := bd.Snapshot(b.Name + "/" + colName[i]).Check(); err != nil {
				return err
			}
			if bd.Sum() != e.Cycles() {
				return fmt.Errorf("account: %s/%s attribution leak: %d != %d",
					b.Name, colName[i], bd.Sum(), e.Cycles())
			}
			bds = append(bds, bd)
		}
		for bkt := 0; bkt < pipeline.NumBuckets; bkt++ {
			row := []string{pipeline.Bucket(bkt).String()}
			for _, bd := range bds {
				row = append(row, i64(bd[bkt]), pct(safeDiv(float64(bd[bkt]), float64(bd.Sum()))))
			}
			t.row(row...)
		}
		totalRow := []string{"total"}
		for _, bd := range bds {
			totalRow = append(totalRow, i64(bd.Sum()), "100.0")
		}
		t.row(totalRow...)
		c.render(t)
		c.printf("\n")

		if err := accountDiff(c, b.Name, d16, dlxe); err != nil {
			return err
		}
		// Persist the cached-memory points (CacheKB > 0): the closed-form
		// grid in Lab.Points() only covers cacheless interfaces, so these
		// measured cached cells are the only way cache configurations
		// reach points.mcst. Cacheless engine points are NOT persisted —
		// they would collide by key with the closed-form grid's cells
		// under a different cycle model.
		c.Points = append(c.Points, d16.AccountPoint(1, cfgs[1]), dlxe.AccountPoint(1, cfgs[1]))
		totals = append(totals, accountTotal{
			bench:     b.Name,
			d16Cyc:    d16.Engines[0].Cycles(),
			dlxeCyc:   dlxe.Engines[0].Cycles(),
			d16Bytes:  d16.Engines[0].FetchBytes(),
			dlxeBytes: dlxe.Engines[0].FetchBytes(),
		})
	}

	c.printf("Suite summary — D16 relative to DLXe (cacheless, bus 4B, 1 wait state)\n")
	t := &table{header: []string{"program", "D16 cycles", "DLXe cycles", "cyc ratio", "D16 ifetch B", "DLXe ifetch B", "byte ratio"}}
	var cycSum, byteSum float64
	for _, tt := range totals {
		cr := safeDiv(float64(tt.d16Cyc), float64(tt.dlxeCyc))
		br := safeDiv(float64(tt.d16Bytes), float64(tt.dlxeBytes))
		cycSum += cr
		byteSum += br
		t.row(tt.bench, i64(tt.d16Cyc), i64(tt.dlxeCyc), f2(cr),
			i64(tt.d16Bytes), i64(tt.dlxeBytes), f2(br))
	}
	n := float64(len(totals))
	t.row("AVERAGE", "", "", f2(cycSum/n), "", "", f2(byteSum/n))
	c.render(t)
	c.printf("\n")
	return nil
}

type accountTotal struct {
	bench               string
	d16Cyc, dlxeCyc     int64
	d16Bytes, dlxeBytes int64
}

// accountDiff renders the per-function differential between the two
// ISAs' cacheless accounted runs: where D16 spends its extra issue
// cycles and where it wins them back in fetch traffic.
func accountDiff(c *Ctx, benchName string, d16, dlxe *core.Measurement) error {
	type fn struct {
		d16Cyc, dlxeCyc     int64
		d16Bytes, dlxeBytes int64
	}
	fns := map[string]*fn{}
	get := func(name string) *fn {
		f := fns[name]
		if f == nil {
			f = &fn{}
			fns[name] = f
		}
		return f
	}
	for _, fa := range d16.Engines[0].PerFunc(d16.Syms) {
		f := get(fa.Name)
		f.d16Cyc, f.d16Bytes = fa.Cycles, fa.FetchBytes
	}
	for _, fa := range dlxe.Engines[0].PerFunc(dlxe.Syms) {
		f := get(fa.Name)
		f.dlxeCyc, f.dlxeBytes = fa.Cycles, fa.FetchBytes
	}
	names := make([]string, 0, len(fns))
	for n := range fns { //detlint:ignore rangemap sorted immediately below
		names = append(names, n)
	}
	// Hottest DLXe functions first; ties and D16-only functions by name.
	sort.Slice(names, func(i, j int) bool {
		a, b := fns[names[i]], fns[names[j]]
		if a.dlxeCyc != b.dlxeCyc {
			return a.dlxeCyc > b.dlxeCyc
		}
		return names[i] < names[j]
	})

	c.printf("%s — per-function differential, D16 vs DLXe (cycles, ifetch bytes)\n", benchName)
	t := &table{header: []string{"function", "D16 cyc", "DLXe cyc", "Δcyc", "ratio", "D16 B", "DLXe B", "B ratio"}}
	var tot fn
	for _, n := range names {
		f := fns[n]
		tot.d16Cyc += f.d16Cyc
		tot.dlxeCyc += f.dlxeCyc
		tot.d16Bytes += f.d16Bytes
		tot.dlxeBytes += f.dlxeBytes
		t.row(n, i64(f.d16Cyc), i64(f.dlxeCyc), i64(f.d16Cyc-f.dlxeCyc),
			ratioCell(f.d16Cyc, f.dlxeCyc),
			i64(f.d16Bytes), i64(f.dlxeBytes), ratioCell(f.d16Bytes, f.dlxeBytes))
	}
	t.row("TOTAL", i64(tot.d16Cyc), i64(tot.dlxeCyc), i64(tot.d16Cyc-tot.dlxeCyc),
		ratioCell(tot.d16Cyc, tot.dlxeCyc),
		i64(tot.d16Bytes), i64(tot.dlxeBytes), ratioCell(tot.d16Bytes, tot.dlxeBytes))
	c.render(t)
	c.printf("\n")
	return nil
}

func ratioCell(a, b int64) string {
	if b == 0 {
		return "-"
	}
	return f2(float64(a) / float64(b))
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
