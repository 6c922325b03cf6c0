// Command mcrun compiles and runs an MC source file (or a named built-in
// benchmark) on the simulator, printing output and dynamic statistics.
//
// Usage:
//
//	mcrun [-target d16|dlxe] [-regs N] [-2addr] [-bench name] [-dumpasm] [-verify] [-static] [file.mc]
//
// Exit codes: 0 success; 1 compile/runtime failure; 2 bad usage or an
// unknown target/benchmark name; 3 the program compiled but its image
// failed static verification (see docs/VERIFY.md). -verify prints the
// verifier's report for the compiled image and exits without running.
//
// Observability flags (see docs/OBSERVABILITY.md):
//
//	-profile     print a function-level instruction profile and the
//	             dynamic caller→callee edge counts
//	-folded      print folded call stacks (one sample per executed
//	             instruction) to stdout for flamegraph tooling; program
//	             output moves to stderr so the stream stays parseable
//	-itrace N    keep a ring buffer of the last N executed instructions,
//	             dumped with symbol annotations if the run faults
//	-fulltrace   stream every executed instruction to stderr
//	-v           print a one-line compile/assemble/link/run stage-timing
//	             summary, so compiler slowdowns are visible without a
//	             trace viewer
//	-account     attach the cycle-level pipeline engine and print a cycle
//	             attribution breakdown (useful / load_delay / fpu /
//	             ifetch_wait / dmem_wait / port_contention / cache_miss /
//	             drain) plus the hottest functions; the memory system is
//	             shaped with -bus, -waits, -shared, -cachekb, -misspenalty
//	-pipetrace F attach the engine's flight recorder and write a Chrome
//	             trace of per-cycle stage occupancy to F (one lane per
//	             stage, stall causes as event names); written even if the
//	             run faults. -pipetrace-depth bounds retained events
//	             (<=0 keeps the full run). See docs/EXPLAIN.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mcc"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/static"
	"repro/internal/telemetry"
	"repro/internal/verify"
)

func main() {
	target := flag.String("target", "d16", "instruction set: d16 or dlxe")
	regs := flag.Int("regs", 0, "restrict register file size (DLXe ablation)")
	twoAddr := flag.Bool("2addr", false, "restrict to two-address operations")
	benchName := flag.String("bench", "", "run a built-in benchmark instead of a file")
	dumpAsm := flag.Bool("dumpasm", false, "print generated assembly")
	profile := flag.Bool("profile", false, "print a function-level instruction profile and call-graph edges")
	folded := flag.Bool("folded", false, "print folded call stacks to stdout (program output goes to stderr)")
	itrace := flag.Int("itrace", 0, "ring-buffer the last N executed instructions, dumped on fault")
	fullTrace := flag.Bool("fulltrace", false, "stream every executed instruction to stderr")
	verbose := flag.Bool("v", false, "print pipeline stage timings (compile/assemble/link/run)")
	maxInstrs := flag.Int64("max", 2_000_000_000, "instruction budget")
	verifyMode := flag.Bool("verify", false, "statically verify the compiled image, print the report, and exit without running")
	staticMode := flag.Bool("static", false, "print the static cost/density analysis (cycle bounds, loop bounds, fetch traffic) and exit without running")
	account := flag.Bool("account", false, "attach the cycle-level engine and print a cycle attribution breakdown")
	pipeTrace := flag.String("pipetrace", "", "write a Chrome trace of pipeline stage occupancy to this file (implies the cycle engine)")
	pipeDepth := flag.Int("pipetrace-depth", 1<<20, "flight-recorder depth for -pipetrace (events kept; <=0 records the full run)")
	busBytes := flag.Uint("bus", 4, "memory bus width in bytes for -account")
	waits := flag.Int64("waits", 1, "memory wait states for -account (ignored with -cachekb)")
	shared := flag.Bool("shared", false, "share one memory port between ifetch and data for -account")
	cacheKB := flag.Uint("cachekb", 0, "split I/D cache size in KB for -account (0 = cacheless)")
	missPenalty := flag.Int64("misspenalty", 8, "cache miss penalty in cycles for -account")
	flag.Parse()

	var spec *isa.Spec
	switch *target {
	case "d16":
		spec = isa.D16()
	case "dlxe":
		spec = isa.DLXe()
	default:
		fmt.Fprintf(os.Stderr, "mcrun: unknown target %q\nvalid targets: d16, dlxe\n", *target)
		os.Exit(2)
	}
	if *regs > 0 {
		spec = isa.RestrictRegs(spec, *regs)
	}
	if *twoAddr {
		spec = isa.TwoAddress(spec)
	}

	var name, src string
	switch {
	case *benchName != "":
		b := bench.ByName(*benchName)
		if b == nil {
			var names []string
			for _, kb := range bench.All() {
				names = append(names, kb.Name)
			}
			fmt.Fprintf(os.Stderr, "mcrun: unknown benchmark %q\nvalid benchmarks: %s\n",
				*benchName, strings.Join(names, ", "))
			os.Exit(2)
		}
		name, src = b.Name+".mc", b.Source
		if *maxInstrs > b.MaxInstrs {
			*maxInstrs = b.MaxInstrs
		}
	case flag.NArg() == 1:
		raw, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		name, src = flag.Arg(0), string(raw)
	default:
		fmt.Fprintln(os.Stderr, "usage: mcrun [flags] file.mc (or -bench name)")
		os.Exit(2)
	}

	// Stage timings come from the same spans the Chrome trace exporter
	// uses; a tracer is only installed when someone will read it.
	var tracer *telemetry.Tracer
	if *verbose {
		tracer = telemetry.NewTracer()
		telemetry.SetGlobalTracer(tracer)
	}

	c, err := mcc.Compile(name, src, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		// Exit 3 distinguishes "the code compiled but failed static
		// verification" from ordinary compile errors (see docs/VERIFY.md).
		var verr *verify.Error
		if errors.As(err, &verr) {
			verr.Report.WriteTable(os.Stderr)
			os.Exit(3)
		}
		os.Exit(1)
	}
	if *dumpAsm {
		fmt.Print(c.Asm)
	}
	if *verifyMode {
		// The compile gate already proved the image clean; re-run the
		// verifier to print the full report.
		verify.Image(c.Image, spec).WriteTable(os.Stdout)
		return
	}
	if *staticMode {
		rep, aerr := static.Analyze(c.Image, spec)
		if aerr != nil {
			fmt.Fprintln(os.Stderr, aerr)
			var verr *verify.Error
			if errors.As(aerr, &verr) {
				verr.Report.WriteTable(os.Stderr)
				os.Exit(3)
			}
			os.Exit(1)
		}
		rep.WriteTable(os.Stdout)
		return
	}
	m, err := sim.New(c.Image)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var prof *sim.Profile
	if *profile || *folded {
		prof = sim.NewProfile(c.Image)
		m.Attach(prof)
	}
	var eng *pipeline.Engine
	if *account || *pipeTrace != "" {
		pc := pipeline.Config{
			BusBytes:    uint32(*busBytes),
			WaitStates:  *waits,
			SharedPort:  *shared,
			MissPenalty: *missPenalty,
		}
		if *cacheKB > 0 {
			bytes := uint32(*cacheKB) * 1024
			sys, err := cache.NewSystem(cache.PaperConfig(bytes), cache.PaperConfig(bytes))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			pc.Caches = sys
		}
		if *pipeTrace != "" {
			// Ring of the last N events; non-positive depth keeps the
			// whole run (fine for short programs, expensive for long ones).
			pc.RecordDepth = *pipeDepth
			if *pipeDepth <= 0 {
				pc.RecordDepth = -1
			}
		}
		eng = pipeline.New(pc)
		eng.EnablePCAccounting()
		m.Attach(eng)
	}
	if *itrace > 0 {
		m.EnableITrace(*itrace)
	}
	if *fullTrace {
		m.TraceW = os.Stderr
	}

	rspan := telemetry.StartSpan("run", telemetry.String("file", name))
	start := time.Now()
	runErr := m.Run(*maxInstrs)
	runDur := time.Since(start)
	rspan.End()

	if prof != nil && *profile {
		fmt.Fprintf(os.Stderr, "--- profile ---\n%s", prof.String())
		if edges := prof.Edges(); len(edges) > 0 {
			fmt.Fprintf(os.Stderr, "--- call edges ---\n")
			for _, e := range edges {
				fmt.Fprintf(os.Stderr, "%12d  %s -> %s\n", e.Count, e.Caller, e.Callee)
			}
		}
	}
	if *folded {
		// Folded stacks own stdout so they pipe straight into
		// flamegraph.pl; the program's own output moves to stderr.
		fmt.Print(prof.Folded())
		fmt.Fprint(os.Stderr, m.Output.String())
	} else {
		fmt.Print(m.Output.String())
	}
	fmt.Fprintf(os.Stderr, "--- %s on %s ---\n", name, spec)
	fmt.Fprintf(os.Stderr, "size=%d bytes (text %d, pools %d, data %d)\n",
		c.Image.Size(), len(c.Image.Text), c.Image.PoolBytes, len(c.Image.Data))
	fmt.Fprintf(os.Stderr, "instrs=%d interlocks=%d loads=%d (pool %d) stores=%d fetchwords=%d spills=%d\n",
		m.Stats.Instrs, m.Stats.Interlocks, m.Stats.Loads, m.Stats.PoolLoads,
		m.Stats.Stores, m.Stats.FetchWords, c.Spills)
	if eng != nil && *account {
		printAccount(eng, c.Image)
	}
	if *pipeTrace != "" {
		// Written even after a fault: the recorder is a flight recorder,
		// and the cycles leading up to the crash are the interesting ones.
		if werr := writePipeTrace(*pipeTrace, eng, c.Image); werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pipeline trace: %d events -> %s (chrome://tracing or ui.perfetto.dev)\n",
			eng.Recorder().Len(), *pipeTrace)
	}
	if *verbose {
		d := tracer.DurationsByName()
		fmt.Fprintf(os.Stderr, "stages: compile=%s assemble=%s link=%s run=%s (%.1f Minstr/s)\n",
			d["compile"].Round(time.Microsecond), d["assemble"].Round(time.Microsecond),
			d["link"].Round(time.Microsecond), d["run"].Round(time.Microsecond),
			float64(m.Stats.Instrs)/1e6/runDur.Seconds())
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "FAULT: %v (near %s)\n", runErr, c.Image.SymbolAt(m.PC))
		if tr := m.ITrace(); len(tr) > 0 {
			fmt.Fprintf(os.Stderr, "--- last %d instructions ---\n", len(tr))
			for _, e := range tr {
				fmt.Fprintf(os.Stderr, "%s\t; in %s\n", e, c.Image.SymbolAt(e.PC))
			}
		}
		os.Exit(1)
	}
}

// writePipeTrace dumps the engine's flight-recorder contents as a
// Chrome trace with one lane per pipeline stage.
func writePipeTrace(path string, e *pipeline.Engine, img *prog.Image) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := e.WriteChromeTrace(f, prog.NewSymTable(img)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printAccount prints the cycle attribution breakdown and the hottest
// functions by attributed cycles.
func printAccount(e *pipeline.Engine, img *prog.Image) {
	fmt.Fprintf(os.Stderr, "--- cycle accounting (%d cycles, %d ifetch bytes, %.3f CPI) ---\n",
		e.Cycles(), e.FetchBytes(), float64(e.Cycles())/float64(max64(e.Instrs, 1)))
	pipeline.WriteBreakdown(os.Stderr, []string{"cycles"}, []pipeline.Breakdown{e.Breakdown()})
	funcs := e.PerFunc(prog.NewSymTable(img))
	const top = 10
	fmt.Fprintf(os.Stderr, "--- hottest functions (top %d of %d) ---\n", min(top, len(funcs)), len(funcs))
	fmt.Fprintf(os.Stderr, "%12s  %6s  %12s  %6s  %s\n", "cycles", "%", "ifetch B", "useful%", "function")
	for i, f := range funcs {
		if i >= top {
			break
		}
		fmt.Fprintf(os.Stderr, "%12d  %6.1f  %12d  %6.1f  %s\n",
			f.Cycles, 100*float64(f.Cycles)/float64(e.Cycles()),
			f.FetchBytes, 100*float64(f.Buckets[pipeline.BUseful])/float64(max64(f.Cycles, 1)),
			f.Name)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
