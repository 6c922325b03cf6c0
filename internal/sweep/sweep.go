package sweep

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/jobs"
	"repro/internal/static"
	"repro/internal/store"
	"repro/internal/synth"
)

// flushEvery is how many finished programs accumulate before their
// points are appended to the store file as one block. Flushing on a
// fixed program cadence — in enumeration order, after the deterministic
// in-order drain — makes the .mcst byte-identical between sequential
// and parallel runs.
const flushEvery = 32

// Failure is one corpus member that failed the verify/differential
// gate, with everything needed to reproduce and debug it offline.
type Failure struct {
	Class string
	Seed  uint32
	Name  string
	Stage string // compile | verify | static | run | differential
	Err   string
	Repro string // one-line repro command
	Path  string // minimized source artifact, if FailDir was set
}

// Summary is the outcome of one sweep.
type Summary struct {
	Programs int // corpus members enumerated
	Passed   int // programs that cleared compile+verify+static+run+differential on every config
	Points   int // store points emitted
	Failures []Failure
}

// Runner executes sweep specifications against a lab. Log receives the
// deterministic progress/summary lines (byte-identical across -jobs N);
// anything run-variable (artifact paths) goes to Errw.
type Runner struct {
	Lab     *core.Lab
	FailDir string    // artifact directory for failing programs ("" = don't persist)
	Log     io.Writer // deterministic output; nil = discard
	Errw    io.Writer // variable-path notes; nil = discard
}

// job tracks one corpus program through the fan-out: its submitted
// tickets (one bus-profile per config, plus one accounted run per
// config when the grid has cached cells), or the error that stopped
// submission.
type job struct {
	prog    *synth.Program
	bench   *bench.Benchmark
	specs   []*isa.Spec
	profile []*jobs.Ticket
	account []*jobs.Ticket
	stage   string
	cfg     string
	err     error
}

// Run generates the spec's corpus, fans the full-factorial grid through
// the lab's scheduler, differentially checks every program across the
// spec's configs, and streams the surface into storePath (skipped when
// empty). Program failures are reported in the summary, not returned as
// errors; the error return is for infrastructure (store I/O, scheduler
// shutdown).
func (r *Runner) Run(spec *Spec, storePath string) (*Summary, error) {
	logw := r.Log
	if logw == nil {
		logw = io.Discard
	}
	if storePath != "" {
		// The surface is rebuilt from scratch: a stale file would merge
		// with this run's blocks through AppendFile.
		if err := os.Remove(storePath); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("sweep: reset store: %w", err)
		}
		if err := os.MkdirAll(filepath.Dir(storePath), 0o755); err != nil {
			return nil, fmt.Errorf("sweep: store dir: %w", err)
		}
	}

	cells := spec.CachedCells()
	fmt.Fprintf(logw, "sweep: %s\n", spec)
	fmt.Fprintf(logw, "sweep: %d programs x %d configs, %d cacheless + %d cached cells each\n",
		spec.Programs(), len(spec.Configs), len(spec.Bus)*len(spec.Waits), len(cells))

	// Phase 1: generate and submit. Compiles run inline (they are the
	// content keys); simulations fan out across the scheduler's workers.
	ctx := context.Background()
	jobsList := make([]*job, 0, spec.Programs())
	for _, class := range spec.Classes {
		for i := 0; i < spec.Count; i++ {
			seed := spec.ProgramSeed(class, i)
			p, err := synth.Generate(class, seed)
			if err != nil {
				return nil, err
			}
			p.MaxInstrs = spec.MaxInstrs
			j := &job{prog: p, specs: spec.Configs, bench: &bench.Benchmark{
				Name:      p.Name,
				Desc:      fmt.Sprintf("synth corpus (%s, seed %#x)", p.Class, p.Seed),
				Source:    p.Source,
				MaxInstrs: p.MaxInstrs,
			}}
			jobsList = append(jobsList, j)
			for _, cfg := range spec.Configs {
				t, err := r.Lab.BusProfileTicket(ctx, j.bench, cfg, spec.Bus)
				if err != nil {
					j.stage, j.cfg, j.err = "compile", cfg.Name, err
					break
				}
				j.profile = append(j.profile, t)
			}
			if j.err != nil || len(cells) == 0 {
				continue
			}
			for _, cfg := range spec.Configs {
				t, err := r.Lab.AccountTicket(ctx, j.bench, cfg, cells)
				if err != nil {
					j.stage, j.cfg, j.err = "compile", cfg.Name, err
					break
				}
				j.account = append(j.account, t)
			}
		}
	}

	// Phase 2: drain in enumeration order, differentially compare, emit
	// points, flush fixed-size store blocks.
	sum := &Summary{Programs: len(jobsList)}
	var pending []store.Point
	flush := func() error {
		if storePath == "" || len(pending) == 0 {
			pending = pending[:0]
			return nil
		}
		if err := store.AppendFile(storePath, store.Canon(pending)); err != nil {
			return fmt.Errorf("sweep: append store: %w", err)
		}
		pending = pending[:0]
		return nil
	}
	for n, j := range jobsList {
		pts, err := r.drain(logw, spec, cells, j)
		if err != nil {
			sum.Failures = append(sum.Failures, r.report(logw, j))
			continue
		}
		sum.Passed++
		sum.Points += len(pts)
		pending = append(pending, pts...)
		if (n+1)%flushEvery == 0 {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}

	fmt.Fprintf(logw, "sweep: %d/%d programs passed verify + static + differential, %d points\n",
		sum.Passed, sum.Programs, sum.Points)
	return sum, nil
}

// drain collects one program's tickets, runs the static-prefilter and
// differential checks and expands its grid points. A non-nil error
// means the program failed a gate; j.stage/j.cfg/j.err carry the
// details.
func (r *Runner) drain(logw io.Writer, spec *Spec, cells []core.AccountConfig, j *job) ([]store.Point, error) {
	if j.err != nil {
		return nil, j.err
	}
	ctx := context.Background()
	profiles := make([]*core.Measurement, len(j.profile))
	for i, t := range j.profile {
		v, err := t.Wait(ctx)
		if err != nil {
			j.stage, j.cfg, j.err = "run", spec.Configs[i].Name, err
			return nil, err
		}
		profiles[i] = v.(*core.Measurement)
	}
	if err := r.staticGate(logw, spec, j, profiles); err != nil {
		return nil, err
	}
	for i := 1; i < len(profiles); i++ {
		if profiles[i].Output != profiles[0].Output {
			j.stage, j.cfg = "differential", spec.Configs[i].Name
			j.err = fmt.Errorf("%s output differs from %s", spec.Configs[i].Name, spec.Configs[0].Name)
			return nil, j.err
		}
	}
	var pts []store.Point
	for i, p := range profiles {
		pts = append(pts, p.PointsOver(spec.Waits)...)
		if len(cells) == 0 {
			continue
		}
		v, err := j.account[i].Wait(ctx)
		if err != nil {
			j.stage, j.cfg, j.err = "run", spec.Configs[i].Name, err
			return nil, err
		}
		run := v.(*core.Measurement)
		for ei, ac := range cells {
			pts = append(pts, run.AccountPoint(ei, ac))
		}
	}
	return pts, nil
}

// staticGate runs the static cost/density analyzer over one program's
// images and cross-checks every observed execution against the analysis
// — the shortest halting path through the interprocedural CFG is a
// sound lower bound on any run's dynamic instruction count (and so on
// every closed-form grid cell's cycles). A violation means either the
// analyzer or the pipeline model is wrong, which is exactly what a
// sweep exists to surface; it fails the program at stage "static". The
// per-program line keeps the log deterministic: everything in it is a
// function of the program and config alone.
func (r *Runner) staticGate(logw io.Writer, spec *Spec, j *job, profiles []*core.Measurement) error {
	for i, cfg := range spec.Configs {
		c, err := r.Lab.Compile(j.bench, cfg)
		if err != nil {
			j.stage, j.cfg, j.err = "compile", cfg.Name, err
			return err
		}
		rep, err := static.Analyze(c.Image, cfg)
		if err != nil {
			j.stage, j.cfg, j.err = "static", cfg.Name, err
			return err
		}
		img := rep.Image
		fmt.Fprintf(logw, "sweep: static %s %s text=%d instrs=%d min-instrs=%d fusible=%d\n",
			j.prog.Name, cfg.Name, img.TextBytes, img.Instrs, img.MinInstrs,
			img.FuseCmpBranch+img.FuseLdcJump)
		if got := profiles[i].Stats.Instrs; got < img.MinInstrs {
			j.stage, j.cfg = "static", cfg.Name
			j.err = fmt.Errorf("dynamic instruction count %d below static minimum path length %d", got, img.MinInstrs)
			return j.err
		}
	}
	return nil
}

// report logs one failing program (deterministically: class, seed,
// stage, error, one-line repro) and, when FailDir is set, minimizes the
// program and persists the artifact. The artifact path varies with the
// invocation, so it goes to Errw, keeping Log byte-identical.
func (r *Runner) report(logw io.Writer, j *job) Failure {
	f := Failure{
		Class: j.prog.Class,
		Seed:  j.prog.Seed,
		Name:  j.prog.Name,
		Stage: j.stage,
		Err:   j.err.Error(),
		Repro: fmt.Sprintf("repro -sweep 'classes=%s count=1 progseed=%d'", j.prog.Class, j.prog.Seed),
	}
	fmt.Fprintf(logw, "sweep: FAIL %s [%s on %s]: %s\n", f.Name, f.Stage, j.cfg, firstLine(f.Err))
	fmt.Fprintf(logw, "sweep:   repro: %s\n", f.Repro)
	if r.FailDir == "" {
		return f
	}
	min := synth.Minimize(j.prog, j.specs)
	if err := os.MkdirAll(r.FailDir, 0o755); err == nil {
		f.Path = filepath.Join(r.FailDir, f.Name+".mc")
		hdr := fmt.Sprintf("/* %s: %s on %s\n   %s\n   repro: %s */\n",
			f.Name, f.Stage, j.cfg, firstLine(f.Err), f.Repro)
		if err := os.WriteFile(f.Path, []byte(hdr+min.Source), 0o644); err != nil {
			f.Path = ""
		}
	}
	if f.Path != "" && r.Errw != nil {
		fmt.Fprintf(r.Errw, "[sweep: minimized source for %s written to %s]\n", f.Name, f.Path)
	}
	return f
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
