// Tradeoff: sweep memory wait states for a cacheless machine and find
// the crossover where the 16-bit encoding's lower instruction traffic
// overtakes its longer path length — the experiment behind the paper's
// Figure 14 and Table 11, on one benchmark.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/isa"
)

func main() {
	name := flag.String("bench", "quicksort", "benchmark to analyze")
	bus := flag.Uint("bus", 32, "fetch bus width in bits (32 or 64)")
	flag.Parse()

	b := bench.ByName(*name)
	if b == nil {
		log.Fatalf("unknown benchmark %q", *name)
	}
	busBytes := uint32(*bus / 8)

	lab := core.NewLab()
	d16, err := lab.Measure(b, isa.D16())
	if err != nil {
		log.Fatal(err)
	}
	dlxe, err := lab.Measure(b, isa.DLXe())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s on a cacheless machine, %d-bit fetch bus\n\n", b.Name, *bus)
	fmt.Printf("path length:    D16 %d, DLXe %d (ratio %.2f)\n",
		d16.Stats.Instrs, dlxe.Stats.Instrs,
		float64(d16.Stats.Instrs)/float64(dlxe.Stats.Instrs))
	fmt.Printf("fetch requests: D16 %d, DLXe %d\n\n",
		reqs(d16, busBytes), reqs(dlxe, busBytes))

	fmt.Printf("%5s %14s %14s %12s %s\n", "wait", "D16 cycles", "DLXe cycles", "DLXe/D16", "winner")
	crossover := -1
	for l := int64(0); l <= 6; l++ {
		cd := d16.Cycles(busBytes, l)
		cx := dlxe.Cycles(busBytes, l)
		winner := "DLXe"
		if cd < cx {
			winner = "D16"
			if crossover < 0 {
				crossover = int(l)
			}
		}
		fmt.Printf("%5d %14d %14d %12.3f %s\n", l, cd, cx, float64(cx)/float64(cd), winner)
	}
	fmt.Println()
	switch {
	case crossover == 0:
		fmt.Println("D16 wins even with zero wait states.")
	case crossover > 0:
		fmt.Printf("Crossover: D16 wins from %d wait state(s) — reduced instruction\n", crossover)
		fmt.Println("traffic amortizes the memory latency over more instructions.")
	default:
		fmt.Println("DLXe wins across the sweep (unusual; try a narrower bus).")
	}
}

func reqs(m *core.Measurement, busBytes uint32) int64 {
	return m.Bus(busBytes).IRequests
}
