package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// smokeExperiments is the paper workload at smoke size: a few cheap
// experiments that still cover measure, cache-sweep and pipeline runs.
var smokeExperiments = map[string]bool{"fig4": true, "tab5": true, "fig14": true}

// paperExperiments lists the experiments the paper workload runs, in
// registry order: all of them (exactly `repro -run all`), or the smoke
// subset.
func paperExperiments(smoke bool) []*experiments.Experiment {
	var out []*experiments.Experiment
	for _, e := range experiments.All() {
		if !smoke || smokeExperiments[e.ID] {
			out = append(out, e)
		}
	}
	return out
}

// runPaper runs the paper's experiments in registry order on one lab,
// each an operation checked against the reference digest of its text.
func runPaper(lab *core.Lab, tr *telemetry.Tracer, ref *reference, smoke bool) []op {
	var ops []op
	for i, e := range paperExperiments(smoke) {
		var buf bytes.Buffer
		ctx := &experiments.Ctx{Lab: lab, W: &buf}
		sp := tr.Start("bench.experiment", telemetry.String("sid", strconv.Itoa(i+1)),
			telemetry.String("parent", "0"), telemetry.String("id", e.ID))
		err := e.Run(ctx)
		sp.End()
		o := op{Name: e.ID, OK: true}
		switch want, got := ref.Paper[e.ID], digest(buf.Bytes()); {
		case err != nil:
			o.OK, o.Why = false, err.Error()
		case want == "":
			o.OK, o.Why = false, "no reference digest"
		case got != want:
			o.OK, o.Why = false, fmt.Sprintf("text digest %.12s, reference %.12s", got, want)
		}
		ops = append(ops, o)
	}
	return ops
}

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
