package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// reference holds the outputs recorded at the commit that defined the
// benchmark (`labbench -record`); every later run must reproduce them
// byte for byte. Simulated statistics are outputs here, never metrics.
type reference struct {
	// Paper maps an experiment ID to the SHA-256 of its rendered text.
	Paper map[string]string `json:"paper"`
	// Sweep maps "seed/count" to one corpus's recorded outputs.
	Sweep map[string]*sweepRef `json:"sweep"`
	// Serve holds the per-request body digests of every request the
	// serve workload's scripts can contain.
	Serve *serveRef `json:"serve"`
}

// sweepRef is one sweep corpus's outputs.
type sweepRef struct {
	Surface  string            `json:"surface"`  // SHA-256 of the .mcst file
	Log      string            `json:"log"`      // SHA-256 of the runner's log
	Programs map[string]string `json:"programs"` // program → programDigest
}

// serveRef is the serve workload's request menu's answers.
type serveRef struct {
	Fixture string            `json:"fixture"` // SHA-256 of the preloaded surface
	Batch   map[string]string `json:"batch"`   // "bench|config" → result element digest
	Static  map[string]string `json:"static"`  // "bench|config" → body digest
	Query   map[string]string `json:"query"`   // query string → body digest
	Explain map[string]string `json:"explain"` // query string → body digest
}

// refFiles are the reference's parts, one file each under reference/.
var refFiles = []string{"paper.json", "sweep.json", "serve.json"}

func sweepKey(seed uint64, count int) string { return fmt.Sprintf("%d/%d", seed, count) }

// sweepFor returns the recorded outputs of one corpus, or nil when the
// seed and size were not recorded (the run then relies on the gates,
// the per-point invariants and the measure-path cross-check).
func (r *reference) sweepFor(seed uint64, count int) *sweepRef {
	return r.Sweep[sweepKey(seed, count)]
}

// loadReference reads the reference directory. A missing file leaves
// its part empty, so every output it would have checked fails.
func loadReference(dir string) (*reference, error) {
	r := &reference{Paper: map[string]string{}, Sweep: map[string]*sweepRef{}, Serve: &serveRef{}}
	parts := []any{&r.Paper, &r.Sweep, &r.Serve}
	for i, name := range refFiles {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(b, parts[i]); err != nil {
			return nil, fmt.Errorf("reference %s: %w", name, err)
		}
	}
	if r.Serve == nil {
		r.Serve = &serveRef{}
	}
	return r, nil
}

// writeReference writes the reference directory.
func writeReference(dir string, r *reference) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	parts := []any{r.Paper, r.Sweep, r.Serve}
	for i, name := range refFiles {
		b, err := json.MarshalIndent(parts[i], "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
