// Cachestudy: sweep instruction-cache sizes for one workload and show
// how the 16-bit encoding's density doubles effective cache capacity —
// the paper's Figure 16/19 experiment, with a configurable geometry.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
)

func main() {
	name := flag.String("bench", "latex", "benchmark to analyze (assem, ipl, latex, ...)")
	block := flag.Uint("block", 32, "cache block size in bytes")
	sub := flag.Uint("sub", 4, "sub-block (transfer) size in bytes")
	penalty := flag.Int64("penalty", 8, "miss penalty in cycles")
	flag.Parse()

	b := bench.ByName(*name)
	if b == nil {
		log.Fatalf("unknown benchmark %q", *name)
	}

	sizes := []uint32{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}
	var cfgs []cache.Config
	for _, s := range sizes {
		cfgs = append(cfgs, cache.Config{
			Size: s, BlockBytes: uint32(*block), SubBytes: uint32(*sub), Assoc: 1,
		})
	}

	lab := core.NewLab()
	fmt.Printf("%s: split I/D caches, %dB blocks, %dB sub-blocks, miss penalty %d\n\n",
		b.Name, *block, *sub, *penalty)
	fmt.Printf("%8s | %12s %10s %10s | %12s %10s %10s\n",
		"size", "D16 miss", "CPI", "words/cyc", "DLXe miss", "CPI", "words/cyc")

	measure := func(spec *isa.Spec) ([]*cache.System, *core.Measurement) {
		sweep, err := lab.CacheSweep(b, spec, cfgs)
		if err != nil {
			log.Fatal(err)
		}
		m, err := lab.Measure(b, spec)
		if err != nil {
			log.Fatal(err)
		}
		return sweep.Caches, m
	}
	sysD, mD := measure(isa.D16())
	sysX, mX := measure(isa.DLXe())

	for i, s := range sizes {
		d, x := sysD[i], sysX[i]
		fmt.Printf("%7dK | %12.4f %10.3f %10.4f | %12.4f %10.3f %10.4f\n",
			s>>10,
			d.I.Stats.MissRate(),
			d.CPI(mD.Stats.Instrs, mD.Stats.Interlocks, *penalty),
			d.IWordsPerCycle(mD.Stats.Instrs, mD.Stats.Interlocks, *penalty),
			x.I.Stats.MissRate(),
			x.CPI(mX.Stats.Instrs, mX.Stats.Interlocks, *penalty),
			x.IWordsPerCycle(mX.Stats.Instrs, mX.Stats.Interlocks, *penalty))
	}
	fmt.Println()
	fmt.Println("Byte for byte, D16 instructions yield better cache behaviour: twice")
	fmt.Println("as many instructions fit in the same cache, and each transferred")
	fmt.Println("sub-block carries twice as many of them.")
}
