package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// record regenerates reference/: the text of every experiment, the
// sweep corpora of the default and held-out seeds (full size) and of
// the default seed at smoke size, and the answer to every request a
// serve script can contain.
func (h *harness) record() error {
	ref := &reference{Paper: map[string]string{}, Sweep: map[string]*sweepRef{}, Serve: &serveRef{
		Batch: map[string]string{}, Static: map[string]string{}, Query: map[string]string{}, Explain: map[string]string{},
	}}
	lab := core.NewLab()
	for _, e := range experiments.All() {
		var buf bytes.Buffer
		if err := e.Run(&experiments.Ctx{Lab: lab, W: &buf}); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		ref.Paper[e.ID] = digest(buf.Bytes())
	}
	for _, c := range []struct {
		seed  uint64
		smoke bool
	}{{defaultSeed, false}, {heldOutSeed, false}, {defaultSeed, true}} {
		spec := sweepSpec(c.seed, c.smoke)
		r, err := recordSweep(spec, filepath.Join(h.tmp, "record.mcst"))
		if err != nil {
			return err
		}
		ref.Sweep[sweepKey(c.seed, spec.Count)] = r
	}
	if err := h.recordServe(ref.Serve); err != nil {
		return err
	}
	return writeReference(h.refDir, ref)
}

// recordServe rebuilds the preloaded surface and asks a fresh simd
// every request of the serve menu once.
func (h *harness) recordServe(r *serveRef) error {
	h.workload = "serve"
	if err := os.Remove(h.fixturePath()); err != nil && !os.IsNotExist(err) {
		return err
	}
	if err := h.prepareServe(); err != nil {
		return err
	}
	fx, err := os.ReadFile(h.serve.fixture)
	if err != nil {
		return err
	}
	r.Fixture = digest(fx)
	path, err := h.serve.copyFixture()
	if err != nil {
		return err
	}
	p, _, err := startSimd(h.serve.simd, path)
	if err != nil {
		return err
	}
	defer p.stop()
	hc := &http.Client{Timeout: 5 * time.Minute}
	get := func(u string) ([]byte, error) {
		resp, err := hc.Get(p.base + u)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %s", u, resp.StatusCode, body)
		}
		return body, err
	}
	for _, k := range pointKeys() {
		resp, err := hc.Post(p.base+"/v1/batch", "application/json", bytes.NewReader(batchBody([]string{k})))
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		ds, err := batchDigests(body)
		if err != nil || len(ds) != 1 || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("batch %s: status %d: %v", k, resp.StatusCode, err)
		}
		r.Batch[k] = ds[0]
	}
	for _, req := range serveMenu() {
		body, err := get("/v1/" + req.Kind + "?" + req.Query)
		if err != nil {
			return err
		}
		switch req.Kind {
		case "static":
			r.Static[req.Query] = digest(body)
		case "query":
			r.Query[req.Query] = digest(body)
		case "explain":
			r.Explain[req.Query] = digest(body)
		}
	}
	return nil
}

// smokeAll runs every workload at smoke size through every check: the
// untraced path (set-up samples plus one repetition) and the traced
// path (the partition and exact-count invariants).
func (h *harness) smokeAll() error {
	h.smoke = true
	fmt.Println(fingerprint(h.root, h.source))
	bad := 0
	for _, w := range workloads {
		h.workload, h.seed, h.serve = w, defaultSeed, nil
		e2e, err := h.measure(0)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		tr, err := h.traced()
		if err != nil {
			return fmt.Errorf("%s traced: %w", w, err)
		}
		fmt.Printf("smoke %-6s e2e %d/%d failed, traced %d/%d failed, %d broken invariants, wall %.3f s, overhead %.3f s\n",
			w, e2e.failed, e2e.attempted, tr.failed, tr.attempted, len(tr.broken),
			e2e.metrics["wall_s"].Value, tr.metrics["telemetry.overhead_s"].Value)
		for _, why := range append(append(e2e.whys, tr.whys...), tr.broken...) {
			fmt.Println("  ", why)
		}
		if e2e.failed+tr.failed+len(tr.broken) > 0 || e2e.attempted == 0 {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("smoke: %d workloads failed their checks", bad)
	}
	fmt.Println("smoke ok")
	return nil
}
