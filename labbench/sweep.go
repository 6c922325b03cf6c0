package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

const (
	// sweepWorkers is the sweep workload's simulation pool size.
	sweepWorkers = 2
	// sweepCount and sweepSmokeCount are the programs per class of the
	// full and the smoke corpus.
	sweepCount      = 20
	sweepSmokeCount = 1
	// crossCheckEvery picks the programs re-measured through the lab's
	// measure path (a different code path from the sweep's bus profiles)
	// whose points must equal the surface's.
	crossCheckEvery = 16
)

// sweepSpec is the sweep workload's grid: every synth class, D16 and
// DLXe, bus widths 4 and 8, wait states 0–3, cacheless.
func sweepSpec(seed uint64, smoke bool) *sweep.Spec {
	spec := sweep.Defaults()
	spec.Seed = seed
	spec.Count = sweepCount
	if smoke {
		spec.Count = sweepSmokeCount
	}
	return spec
}

// sweepRun is one repetition's checked outcome plus, for traced reps,
// what the replays need.
type sweepRun struct {
	ops        []op
	checks     []op
	counts     map[string]float64
	rootCarves func() []carve
}

// logLines collects the sweep runner's deterministic log, and each
// program's per-config lines (or its failure report).
type logLines struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	byPrg map[string][]string
}

func (l *logLines) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	for _, line := range strings.Split(strings.TrimRight(string(p), "\n"), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != "sweep:" || (f[1] != "static" && f[1] != "FAIL") {
			continue
		}
		l.byPrg[f[2]] = append(l.byPrg[f[2]], line)
	}
	return len(p), nil
}

// sweepOut is one executed sweep's raw outputs.
type sweepOut struct {
	sum   *sweep.Summary
	raw   []byte                   // the .mcst surface file
	pts   []store.Point            // its points, file order
	byPrg map[string][]store.Point // canonical points per program
	logs  *logLines
}

// execSweep runs the sweep runner and reads back its surface.
func execSweep(lab *core.Lab, spec *sweep.Spec, path string) (*sweepOut, error) {
	out := &sweepOut{logs: &logLines{byPrg: map[string][]string{}}}
	sum, err := (&sweep.Runner{Lab: lab, Log: out.logs}).Run(spec, path)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	out.sum = sum
	if out.raw, err = os.ReadFile(path); err != nil {
		return nil, fmt.Errorf("sweep surface: %w", err)
	}
	if out.pts, err = store.Read(bytes.NewReader(out.raw)); err != nil {
		return nil, fmt.Errorf("sweep surface: %w", err)
	}
	out.byPrg = map[string][]store.Point{}
	for _, p := range store.Canon(out.pts) {
		out.byPrg[p.Bench] = append(out.byPrg[p.Bench], p)
	}
	return out, nil
}

// corpus regenerates the spec's programs in enumeration order.
func corpus(spec *sweep.Spec) ([]*synth.Program, error) {
	var out []*synth.Program
	for _, class := range spec.Classes {
		for k := 0; k < spec.Count; k++ {
			p, err := synth.Generate(class, spec.ProgramSeed(class, k))
			if err != nil {
				return nil, err
			}
			p.MaxInstrs = spec.MaxInstrs
			out = append(out, p)
		}
	}
	return out, nil
}

// runSweep streams a synth corpus through the full-factorial grid on
// the parallel lab and checks every program's log lines and surface
// points, and the surface file.
func runSweep(lab *core.Lab, tr *telemetry.Tracer, ref *reference, a workerArgs) (*sweepRun, error) {
	spec := sweepSpec(a.seed, a.smoke)
	out, err := execSweep(lab, spec, filepath.Join(a.tmpDir, "sweep.mcst"))
	if err != nil {
		return nil, err
	}
	sp := tr.Start("bench.check", telemetry.String("sid", "1"), telemetry.String("parent", "0"))
	defer sp.End()
	progs, err := corpus(spec)
	if err != nil {
		return nil, err
	}
	failed := map[string]string{}
	for _, f := range out.sum.Failures {
		failed[f.Name] = fmt.Sprintf("stage %s: %s", f.Stage, f.Err)
	}
	want := ref.sweepFor(a.seed, spec.Count)
	perProgram := len(spec.Configs) * len(spec.Bus) * len(spec.Waits)
	sr := &sweepRun{counts: map[string]float64{
		"synth.programs": float64(spec.Programs()),
		"store.points":   float64(len(out.pts)),
		"store.bytes":    float64(len(out.raw)),
	}}
	for i, p := range progs {
		o := op{Name: p.Name}
		got := out.byPrg[p.Name]
		switch {
		case failed[p.Name] != "":
			o.Why = failed[p.Name]
		case len(got) != perProgram:
			o.Why = fmt.Sprintf("%d surface points, want %d", len(got), perProgram)
		case want != nil && want.Programs[p.Name] != programDigest(out.logs.byPrg[p.Name], got):
			o.Why = "log lines or surface points differ from the reference"
		case i%crossCheckEvery == 0:
			o.Why = crossCheck(lab, spec, p, got)
		}
		for _, pt := range got {
			if err := pt.Validate(); err != nil && o.Why == "" {
				o.Why = err.Error()
			}
		}
		o.OK = o.Why == ""
		sr.ops = append(sr.ops, o)
	}
	// The surface file itself is one more checked output.
	so := op{Name: "surface"}
	switch {
	case len(out.pts) != out.sum.Points:
		so.Why = fmt.Sprintf("surface holds %d points, the sweep reported %d", len(out.pts), out.sum.Points)
	case want != nil && want.Surface != digest(out.raw):
		so.Why = "surface file differs from the reference"
	case want != nil && want.Log != digest(out.logs.buf.Bytes()):
		so.Why = "sweep log differs from the reference"
	}
	so.OK = so.Why == ""
	sr.checks = append(sr.checks, so)

	sr.rootCarves = func() []carve {
		return []carve{
			{"synth.busy_s", replaySynth(spec)},
			{"store.append_s", replayAppends(out.raw, filepath.Join(a.tmpDir, "replay.mcst"))},
		}
	}
	return sr, nil
}

// recordSweep runs one corpus and returns its reference outputs.
func recordSweep(spec *sweep.Spec, path string) (*sweepRef, error) {
	lab := core.NewParallelLab(sweepWorkers)
	defer lab.Scheduler().Shutdown(context.Background()) //nolint:errcheck // drained by Run
	out, err := execSweep(lab, spec, path)
	if err != nil {
		return nil, err
	}
	if len(out.sum.Failures) > 0 {
		return nil, fmt.Errorf("sweep seed %d: %d programs failed", spec.Seed, len(out.sum.Failures))
	}
	progs, err := corpus(spec)
	if err != nil {
		return nil, err
	}
	r := &sweepRef{Surface: digest(out.raw), Log: digest(out.logs.buf.Bytes()), Programs: map[string]string{}}
	for _, p := range progs {
		r.Programs[p.Name] = programDigest(out.logs.byPrg[p.Name], out.byPrg[p.Name])
	}
	return r, nil
}

// programDigest fingerprints one program's outputs: its log lines and
// its canonical surface points.
func programDigest(lines []string, pts []store.Point) string {
	var b bytes.Buffer
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	enc := json.NewEncoder(&b)
	for i := range pts {
		if err := enc.Encode(&pts[i]); err != nil {
			return ""
		}
	}
	return digest(b.Bytes())
}

// crossCheck re-measures one corpus program through the lab's measure
// path (standard observers, a different code path from the sweep's bus
// profiles) and compares its cacheless points with the surface's.
func crossCheck(lab *core.Lab, spec *sweep.Spec, p *synth.Program, got []store.Point) string {
	b := &bench.Benchmark{Name: p.Name, Source: p.Source, MaxInstrs: p.MaxInstrs}
	var want []store.Point
	for _, cfg := range spec.Configs {
		m, err := lab.Measure(b, cfg)
		if err != nil {
			return "cross-check measure: " + err.Error()
		}
		want = append(want, m.Points()...)
	}
	want = store.Canon(want)
	if len(want) != len(got) {
		return fmt.Sprintf("cross-check: measure path gives %d points, surface %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Sprintf("cross-check: point %s differs between the measure path and the surface", want[i].Key())
		}
	}
	return ""
}

// replaySynth times generating the spec's whole corpus (work the sweep
// runner does inline, without a span of its own).
func replaySynth(spec *sweep.Spec) float64 {
	t0 := time.Now()
	if _, err := corpus(spec); err != nil {
		return 0
	}
	return time.Since(t0).Seconds()
}

// replayAppends times re-appending the surface's blocks, one
// canonicalize-and-append per block, to a scratch file (the sweep's
// flush work, which has no span of its own).
func replayAppends(surface []byte, scratch string) float64 {
	defer os.Remove(scratch)
	var total time.Duration
	err := store.Scan(bytes.NewReader(surface), func(block []store.Point) error {
		t0 := time.Now()
		err := store.AppendFile(scratch, store.Canon(block))
		total += time.Since(t0)
		return err
	})
	if err != nil {
		return 0
	}
	return total.Seconds()
}
