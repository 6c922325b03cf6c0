// Command labbench is the lab's end-to-end benchmark. It runs one
// workload — paper, sweep or serve — in fresh processes, checks every
// output against the reference recorded in reference/, and prints
// host-time metrics by name and unit, ending with one JSON result line.
//
//	bash labbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
//	bash labbench/run.sh -smoke        # every workload at tiny size, all checks
//	bash labbench/run.sh -record       # re-record reference/ (only when outputs
//	                                   # are meant to change)
//
// --trace 1 makes a separate traced run that charges host time to the
// repo's modules instead. NOTES.md describes the workloads, the metrics
// and which layer metric should move which end-to-end metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "worker":
			os.Exit(workerMain(os.Args[2:]))
		case "fixture":
			if err := buildFixture(os.Args[2]); err != nil {
				fmt.Fprintln(os.Stderr, "labbench fixture:", err)
				os.Exit(1)
			}
			return
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

const (
	// defaultSeed is the seed sweep and serve are tuned and referenced
	// on; heldOutSeed is kept for checking a later change's claim on
	// inputs it was not written against (NOTES.md).
	defaultSeed = 1
	heldOutSeed = 7919
	// setupSamples extra set-up-only processes are timed per run, so
	// setup_s is a median even when the work fits one repetition.
	setupSamples = 15
)

var workloads = []string{"paper", "sweep", "serve"}

// harness is one benchmark invocation's context.
type harness struct {
	root     string // repository checkout
	self     string // this executable (workers are fresh copies of it)
	source   string // sourceDigest of the checkout
	refDir   string
	tmp      string
	workload string
	seed     uint64
	smoke    bool
	serve    *serveEnv
}

func benchMain(argv []string) int {
	fs := flag.NewFlagSet("labbench", flag.ContinueOnError)
	root := fs.String("root", ".", "repository checkout to benchmark")
	workload := fs.String("workload", "", "paper, sweep or serve")
	seed := fs.Uint64("seed", defaultSeed, "master seed of the workload's inputs")
	seconds := fs.Int("seconds", 30, "measuring time of one run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	smoke := fs.Bool("smoke", false, "run every workload at tiny size through all checks")
	record := fs.Bool("record", false, "record reference outputs into reference/")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	h, err := newHarness(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "labbench:", err)
		return 2
	}
	defer os.RemoveAll(h.tmp)
	switch {
	case *record:
		err = h.record()
	case *smoke:
		err = h.smokeAll()
	default:
		h.workload, h.seed = *workload, *seed
		err = h.run(*seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "labbench:", err)
		return 1
	}
	return 0
}

func newHarness(root string) (*harness, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	for _, need := range []string{"go.mod", "internal/core", "cmd/simd"} {
		if _, err := os.Stat(filepath.Join(abs, need)); err != nil {
			return nil, fmt.Errorf("%s is not a checkout of the repository (no %s)", abs, need)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(abs, ".bench_build", "tmp", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	return &harness{root: abs, self: self, source: sourceDigest(abs), refDir: filepath.Join(abs, "labbench", "reference"), tmp: tmp}, nil
}

// run measures one workload (untraced) or makes its traced run, and
// prints the metrics and the result line.
func (h *harness) run(seconds int, traced bool) error {
	known := false
	for _, w := range workloads {
		known = known || w == h.workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (valid: %s)", h.workload, strings.Join(workloads, ", "))
	}
	fmt.Println(fingerprint(h.root, h.source))
	var res *result
	var err error
	if traced {
		res, err = h.traced()
	} else {
		res, err = h.measure(time.Duration(seconds) * time.Second)
	}
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	return nil
}

// rep runs one repetition of the workload's fixed work in a fresh
// process and returns it with its set-up time.
func (h *harness) rep(traced bool) (*repResult, float64, error) {
	if h.workload == "serve" {
		if err := h.prepareServe(); err != nil {
			return nil, 0, err
		}
		return serveRep(h.serve, traced)
	}
	args := []string{"worker", "-workload", h.workload, "-seed", strconv.FormatUint(h.seed, 10),
		"-ref", h.refDir, "-tmp", h.tmp}
	if traced {
		args = append(args, "-trace")
	}
	if h.smoke {
		args = append(args, "-smoke")
	}
	return h.spawn(args, true)
}

// setupOnce times one set-up alone: a fresh process from exec until
// ready (serve: simd spawn until its first 200 from /healthz).
func (h *harness) setupOnce() (float64, error) {
	if h.workload == "serve" {
		if err := h.prepareServe(); err != nil {
			return 0, err
		}
		return serveSetup(h.serve)
	}
	_, setup, err := h.spawn([]string{"worker", "-workload", h.workload, "-setup-only"}, false)
	return setup, err
}

// spawn runs one worker process: set-up is timed from exec until its
// "ready" line, and the JSON line after it (when want) is the
// repetition's result.
func (h *harness) spawn(args []string, want bool) (*repResult, float64, error) {
	cmd := exec.Command(h.self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 1<<28)
	var setup float64
	var res *repResult
	for sc.Scan() {
		if setup == 0 && sc.Text() == "ready" {
			setup = time.Since(t0).Seconds()
			continue
		}
		res = &repResult{}
		if err := json.Unmarshal(sc.Bytes(), res); err != nil {
			res = nil
		}
	}
	werr := cmd.Wait()
	switch {
	case werr != nil:
		return nil, 0, fmt.Errorf("worker %v: %w", args, werr)
	case setup == 0:
		return nil, 0, fmt.Errorf("worker %v never became ready", args)
	case want && res == nil:
		return nil, 0, fmt.Errorf("worker %v printed no result", args)
	case res != nil && res.Err != "":
		return nil, 0, fmt.Errorf("worker %v: %s", args, res.Err)
	}
	return res, setup, nil
}

// measure is the untraced run: set-up samples, then repetitions in
// fresh processes until the measuring time would be exceeded (at least
// one), reported as medians; serve's request latencies are pooled.
func (h *harness) measure(budget time.Duration) (*result, error) {
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		s, err := h.setupOnce()
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	var reps []*repResult
	start := time.Now()
	var last time.Duration
	for len(reps) == 0 || time.Since(start)+last <= budget {
		t0 := time.Now()
		r, setup, err := h.rep(false)
		if err != nil {
			return nil, err
		}
		last = time.Since(t0)
		reps = append(reps, r)
		setups = append(setups, setup)
	}
	return h.endToEnd(reps, setups), nil
}

// endToEnd reduces repetitions to the end-to-end metrics.
func (h *harness) endToEnd(reps []*repResult, setups []float64) *result {
	res := newResult()
	var walls, cpus, rss, rates, lats []float64
	for _, r := range reps {
		walls = append(walls, r.Wall)
		cpus = append(cpus, r.CPU)
		rss = append(rss, r.RSS)
		rates = append(rates, float64(len(r.Ops))/r.Wall)
		for _, o := range r.Ops {
			res.count(o)
			lats = append(lats, o.Lat*1e3)
		}
		for _, o := range r.Checks {
			res.count(o)
		}
	}
	res.set("setup_s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	note := fmt.Sprintf("median of %d repetitions", len(reps))
	if q1, _, q3, ok := quartiles(walls); ok {
		note += fmt.Sprintf(", quartiles %.3f–%.3f s", q1, q3)
	}
	res.set("wall_s", median(walls), note)
	res.set("cpu_s", median(cpus), "")
	res.set("peak_rss_mb", median(rss), "")
	if h.workload != "serve" {
		// A batch workload has no requests, but the result line must
		// carry every end-to-end metric: these three are wall_s restated
		// per operation and add no information of their own.
		ops := float64(len(reps[0].Ops))
		perOp := median(walls) / ops * 1e3
		derived := fmt.Sprintf("derived from wall_s: %d %s per repetition", len(reps[0].Ops), opNoun[h.workload])
		res.set("req_per_s", ops/median(walls), derived)
		res.set("latency_p50_ms", perOp, derived+", mean time per operation")
		res.set("latency_p99_ms", perOp, derived+", mean time per operation")
		return res
	}
	p50, tail := rankPct(lats, 50), tailPct(lats, 99)
	res.set("req_per_s", median(rates), "requests per second")
	res.set("latency_p50_ms", p50.Value, fmt.Sprintf("n=%d", p50.N))
	note = fmt.Sprintf("n=%d, %d beyond", tail.N, tail.Beyond)
	if tail.Pct < 99 {
		note = fmt.Sprintf("reports p%.1f: p99 would rest on fewer than %d samples beyond it; %s", tail.Pct, minBeyond, note)
	}
	res.set("latency_p99_ms", tail.Value, note)
	return res
}

var opNoun = map[string]string{"paper": "experiments", "sweep": "corpus programs"}

// traced is the traced run: traced and untraced repetitions alternate
// (traced, untraced, traced, and a second untraced one while the run
// stays within tracedBudget). The traced reps' per-layer times are
// averaged and their exact counts must agree; each traced rep's layer
// times must sum to its traced wall time. The untraced reps are the
// baseline of telemetry.overhead_s.
func (h *harness) traced() (*result, error) {
	res := newResult()
	var tr, base []*repResult
	start := time.Now()
	var lastBase time.Duration
	for i, traced := range []bool{true, false, true, false} {
		if i == 3 && time.Since(start)+lastBase > tracedBudget {
			break
		}
		t0 := time.Now()
		r, _, err := h.rep(traced)
		if err != nil {
			return nil, err
		}
		for _, o := range append(r.Ops, r.Checks...) {
			res.count(o)
		}
		if !traced {
			base = append(base, r)
			lastBase = time.Since(t0)
			continue
		}
		tr = append(tr, r)
		if err := checkPartition(r.Layers, r.Layers["traced_wall_s"]); err != nil {
			res.invariant("traced rep %d: %v", len(tr), err)
		}
		for _, n := range r.Notes {
			fmt.Println("note:", n)
		}
	}
	exact := exactCounts
	if h.workload != "serve" {
		exact = append(exact[:len(exact):len(exact)], "jobs.cache_hit_ratio")
	}
	for _, k := range exact {
		if tr[0].Counts[k] != tr[1].Counts[k] {
			res.invariant("%s differs between the traced reps: %v vs %v", k, tr[0].Counts[k], tr[1].Counts[k])
		}
	}
	if h.workload == "serve" {
		secs, points, size, err := storeLoad(h.serve.fixture)
		if err != nil {
			return nil, err
		}
		for _, r := range tr {
			r.Counts["store.load_s"], r.Counts["store.points"], r.Counts["store.bytes"] = secs, float64(points), float64(size)
		}
	}
	for _, m := range perLayer {
		v := (tr[0].Layers[m.Name] + tr[1].Layers[m.Name]) / 2
		if _, isTime := tr[0].Layers[m.Name]; !isTime {
			v = (tr[0].Counts[m.Name] + tr[1].Counts[m.Name]) / 2
		}
		res.set(m.Name, v, "")
	}
	var trWall, trCPU, baseWall, baseCPU []float64
	for _, r := range tr {
		trWall, trCPU = append(trWall, r.Layers["traced_wall_s"]), append(trCPU, r.CPU)
	}
	for _, r := range base {
		baseWall, baseCPU = append(baseWall, r.Wall), append(baseCPU, r.CPU)
	}
	res.set("telemetry.overhead_s", median(trWall)-median(baseWall),
		fmt.Sprintf("median traced wall %s s - median untraced wall %s s", seconds(trWall), seconds(baseWall)))
	res.set("telemetry.overhead_cpu_s", median(trCPU)-median(baseCPU),
		fmt.Sprintf("median traced cpu %s s - median untraced cpu %s s; GC cycles traced %s, untraced %s",
			seconds(trCPU), seconds(baseCPU), gcCycles(tr), gcCycles(base)))
	return res, nil
}

// tracedBudget bounds a traced run: its last untraced rep is skipped
// when it would end later than this after the run's start.
const tracedBudget = 140 * time.Second

// seconds lists values as "a, b".
func seconds(xs []float64) string {
	var parts []string
	for _, x := range xs {
		parts = append(parts, fmt.Sprintf("%.3f", x))
	}
	return strings.Join(parts, ", ")
}

// gcCycles lists the reps' garbage collections ("n/a" when the work ran
// in simd, whose collector the benchmark cannot see).
func gcCycles(reps []*repResult) string {
	var parts []string
	for _, r := range reps {
		if r.GC == 0 {
			return "n/a"
		}
		parts = append(parts, strconv.Itoa(r.GC))
	}
	return strings.Join(parts, ", ")
}

// prepareServe writes the preloaded surface once per version of the
// sources (before any measured run) and the run's request script.
func (h *harness) prepareServe() error {
	if h.serve != nil {
		return nil
	}
	ref, err := loadReference(h.refDir)
	if err != nil {
		return err
	}
	fixture := h.fixturePath()
	if _, err := os.Stat(fixture); errors.Is(err, os.ErrNotExist) {
		tmp := fixture + ".tmp"
		cmd := exec.Command(h.self, "fixture", tmp)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("building the serve fixture: %w", err)
		}
		if err := os.Rename(tmp, fixture); err != nil {
			return err
		}
	}
	n := serveRequests
	if h.smoke {
		n = serveSmokeRequests
	}
	fx, err := os.ReadFile(fixture)
	if err != nil {
		return err
	}
	h.serve = &serveEnv{
		simd:    filepath.Join(filepath.Dir(h.self), "simd"),
		fixture: fixture,
		tmp:     h.tmp,
		script:  serveScript(h.seed, n),
		ref:     ref.Serve,
		check:   op{Name: "fixture", OK: true},
	}
	if digest(fx) != ref.Serve.Fixture {
		h.serve.check = op{Name: "fixture", Why: "preloaded surface differs from the reference"}
	}
	return nil
}

// fixturePath names the preloaded surface after the source digest, so a
// checkout whose sources change builds a new one instead of loading the
// bytes an earlier version wrote.
func (h *harness) fixturePath() string {
	return filepath.Join(h.root, ".bench_build", "serve-fixture-"+strings.TrimPrefix(h.source, "sha256:")+".mcst")
}

// result is the run's outcome: checked operations and named metrics.
type result struct {
	attempted, failed int
	whys              []string
	broken            []string // violated traced-run invariants
	metrics           map[string]metric
	notes             map[string]string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, notes: map[string]string{}}
}

func (r *result) count(o op) {
	r.attempted++
	if !o.OK {
		r.failed++
		if len(r.whys) < 10 {
			r.whys = append(r.whys, o.Name+": "+o.Why)
		}
	}
}

func (r *result) invariant(format string, args ...any) {
	r.broken = append(r.broken, fmt.Sprintf(format, args...))
}

func (r *result) set(name string, v float64, note string) {
	unit := ""
	for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...) {
		if d.Name == name {
			unit = d.Unit
		}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{v, unit}
	if note != "" {
		r.notes[name] = note
	}
}

// print writes one line per metric, the failures, and the result line
// (always last).
func (r *result) print(f *os.File) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		line := fmt.Sprintf("%-24s %14.6f %s", n, m.Value, m.Unit)
		if note := r.notes[n]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Fprintln(f, line)
	}
	fmt.Fprintf(f, "failed_ratio %d/%d\n", r.failed, r.attempted)
	for _, w := range r.whys {
		fmt.Fprintln(f, "FAILED", w)
	}
	for _, b := range r.broken {
		fmt.Fprintln(f, "INVARIANT", b)
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && len(r.broken) == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics})
	fmt.Fprintln(f, string(out))
}
