package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/telemetry"
)

// op is one checked operation of a workload: an experiment, a corpus
// program or a request. Lat is a request's round trip in seconds (serve
// only). Why says what was wrong when OK is false.
type op struct {
	Name string  `json:"name"`
	Lat  float64 `json:"lat,omitempty"`
	OK   bool    `json:"ok"`
	Why  string  `json:"why,omitempty"`
}

// repResult is what one fresh process reports for one repetition of a
// workload's fixed work.
type repResult struct {
	Wall   float64            `json:"wall_s"` // ready → work done and verified
	CPU    float64            `json:"cpu_s"`  // user+sys over the same interval
	RSS    float64            `json:"peak_rss_mb"`
	GC     int                `json:"gc,omitempty"` // garbage collections over the interval (in-process workloads)
	Ops    []op               `json:"ops"`
	Checks []op               `json:"checks,omitempty"` // whole-run outputs: counted, never timed
	Layers map[string]float64 `json:"layers,omitempty"` // traced reps only
	Counts map[string]float64 `json:"counts,omitempty"`
	Notes  []string           `json:"notes,omitempty"`
	Err    string             `json:"err,omitempty"`
}

// workerArgs configure one in-process repetition.
type workerArgs struct {
	workload  string
	seed      uint64
	smoke     bool
	traced    bool
	setupOnly bool
	refDir    string
	tmpDir    string
}

// workerMain is one fresh process running an in-process workload: it
// constructs the lab, prints "ready" (the end of set-up, timed by the
// parent from exec), runs and verifies the fixed work, and prints its
// repResult as one JSON line.
func workerMain(argv []string) int {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	var a workerArgs
	fs.StringVar(&a.workload, "workload", "", "paper or sweep")
	fs.Uint64Var(&a.seed, "seed", 1, "master seed")
	fs.BoolVar(&a.smoke, "smoke", false, "tiny size")
	fs.BoolVar(&a.traced, "trace", false, "install the tracer and charge time to layers")
	fs.BoolVar(&a.setupOnly, "setup-only", false, "exit once ready")
	fs.StringVar(&a.refDir, "ref", "", "reference directory")
	fs.StringVar(&a.tmpDir, "tmp", "", "scratch directory")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	var lab *core.Lab
	switch a.workload {
	case "paper":
		lab = core.NewLab()
	case "sweep":
		lab = core.NewParallelLab(sweepWorkers)
	default:
		fmt.Fprintf(os.Stderr, "labbench worker: unknown workload %q\n", a.workload)
		return 2
	}
	fmt.Println("ready")
	if a.setupOnly {
		return 0
	}
	res := runRep(lab, a)
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "labbench worker:", err)
		return 1
	}
	return 0
}

// runRep runs the workload once, timed from ready, and in a traced rep
// charges the traced interval to layers with the replays.
func runRep(lab *core.Lab, a workerArgs) *repResult {
	res := &repResult{}
	ref, err := loadReference(a.refDir)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	var tr *telemetry.Tracer
	if a.traced {
		tr = telemetry.NewTracer()
		telemetry.SetGlobalTracer(tr)
	}
	compiles0 := telemetry.Default().Counter("mcc.compiles").Value()
	hits0, misses0 := decode.CacheStats()
	gc0 := gcCount()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	root := tr.Start("bench."+a.workload, telemetry.String("sid", "0"))

	var rootCarves func() []carve
	counts := map[string]float64{}
	switch a.workload {
	case "paper":
		res.Ops = runPaper(lab, tr, ref, a.smoke)
	case "sweep":
		var sw *sweepRun
		sw, err = runSweep(lab, tr, ref, a)
		if err == nil {
			res.Ops, res.Checks = sw.ops, sw.checks
			rootCarves = sw.rootCarves
			counts = sw.counts
		}
	}
	root.End()
	res.Wall = time.Since(t0).Seconds()
	res.CPU = cpuSeconds() - cpu0
	res.RSS = peakRSSMiB("self")
	res.GC = gcCount() - gc0
	if err != nil {
		res.Err = err.Error()
		return res
	}
	if !a.traced {
		return res
	}
	telemetry.SetGlobalTracer(nil)

	res.Counts = counts
	res.Counts["mcc.compiles"] = float64(telemetry.Default().Counter("mcc.compiles").Value() - compiles0)
	hits, misses := decode.CacheStats()
	res.Counts["decode.misses"] = float64(misses - misses0)
	if n := (hits - hits0) + (misses - misses0); n > 0 {
		res.Counts["decode.hit_ratio"] = float64(hits-hits0) / float64(n)
	}
	m := lab.Scheduler().Metrics()
	res.Counts["jobs.submitted"] = float64(m.Submitted.Value())
	res.Counts["jobs.coalesced"] = float64(m.Coalesced.Value())
	if n := m.CacheHits.Value() + m.CacheMisses.Value(); n > 0 {
		res.Counts["jobs.cache_hit_ratio"] = float64(m.CacheHits.Value()) / float64(n)
	}
	res.Counts["jobs.queue_wait_p50_ms"] = float64(m.QueueWaitUS.Quantile(0.5)) / 1e3

	evs := tr.Events()
	spans := buildSpans(evs, a.workload == "sweep")
	w0, w1 := rootWindow(spans)
	res.Layers = map[string]float64{}
	idle := attribute(spans, w0, w1)
	rp := newReplayer(lab)
	var rc []carve
	if rootCarves != nil {
		rc = rootCarves()
	}
	chargeSpans(spans, rp, res.Layers, res.Counts, rc...)
	res.Layers["other_s"] += idle
	res.Layers["traced_wall_s"] = w1 - w0
	if rp.bareTotal > 0 {
		res.Counts["sim.mips"] = res.Counts["sim.instrs"] / rp.bareTotal / 1e6
	}
	if rp.unresolved > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d bench|config names not resolvable for replay; their runs are charged whole to observers", rp.unresolved))
	}
	return res
}

// gcCount is the number of garbage collections the process has run.
func gcCount() int {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int(ms.NumGC)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMiB reads VmHWM (peak resident set) of /proc/<pid>/status.
func peakRSSMiB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	return statusKB(string(b), "VmHWM:") / 1024
}

// statusKB extracts a "Key:   N kB" field of a /proc status file.
func statusKB(status, key string) float64 {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb
				}
			}
		}
	}
	return 0
}

// procCPUSeconds reads utime+stime of another process from
// /proc/<pid>/stat (in clock ticks of 1/100 s, the Linux USER_HZ).
func procCPUSeconds(pid int) float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// The fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}
