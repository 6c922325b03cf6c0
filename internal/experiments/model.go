package experiments

import (
	"repro/internal/bench"
	"repro/internal/core"
)

// ablate-model validates the paper's footnote-2 claim: its closed-form
// cycle estimate tracks a cycle-level pipeline model, and is (slightly)
// pessimistic because it assumes memory latency never overlaps
// execution. The shared-port column additionally serializes instruction
// and data requests — the structural hazard the formula also ignores,
// in the opposite direction.

func init() {
	register("ablate-model", "Ablation: closed-form cycle formula vs cycle-level pipeline model", ablateModel)
}

func ablateModel(c *Ctx) error {
	c.printf("Cycle-level engine vs the paper's formula, 32-bit bus (engine/formula)\n")
	c.printf("(< 1.0 means the formula is pessimistic, the paper's direction)\n\n")
	waits := []int64{0, 1, 2, 3}
	for _, spec := range []struct {
		name string
	}{{"D16"}, {"DLXe"}} {
		cfg := cfgD16
		if spec.name == "DLXe" {
			cfg = cfgX323
		}
		c.printf("%s:\n", spec.name)
		t := &table{header: []string{"program", "l=0", "l=1", "l=2", "l=3", "shared-port l=1"}}
		var pcfgs []core.AccountConfig
		for _, l := range waits {
			pcfgs = append(pcfgs, core.AccountConfig{BusBytes: 4, WaitStates: l})
		}
		pcfgs = append(pcfgs, core.AccountConfig{BusBytes: 4, WaitStates: 1, SharedPort: true})
		sums := make([]float64, len(pcfgs))
		for _, b := range bench.All() {
			run, err := c.Lab.PipelineRun(b, cfg, pcfgs)
			if err != nil {
				return err
			}
			m, err := c.Lab.Measure(b, cfg)
			if err != nil {
				return err
			}
			row := []string{b.Name}
			for i, e := range run.Engines {
				l := e.Cycles()
				var formula int64
				if i < len(waits) {
					formula = m.Cycles(4, waits[i])
				} else {
					formula = m.Cycles(4, 1)
				}
				r := float64(l) / float64(formula)
				sums[i] += r
				row = append(row, f2(r))
			}
			t.row(row...)
		}
		avg := []string{"AVERAGE"}
		for _, s := range sums {
			avg = append(avg, f2(s/float64(len(bench.All()))))
		}
		t.row(avg...)
		c.render(t)
		c.printf("\n")
	}
	return nil
}
