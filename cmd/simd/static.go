package main

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/bench"
	"repro/internal/isa"
	"repro/internal/mcc"
	"repro/internal/static"
	"repro/internal/verify"
)

// handleStatic answers GET /v1/static?bench=<name>&config=<name>: the
// static cost/density analysis of one compiled image — code density,
// ifetch traffic, loop bounds and sound cycle intervals — with zero
// simulation. The response is deterministic, so equal requests get
// byte-equal bodies. An image that fails static verification maps to
// 422 with the violation report, mirroring /v1/batch.
func (s *server) handleStatic(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	for k := range q {
		if k != "bench" && k != "config" {
			http.Error(w, fmt.Sprintf("bad request: unknown parameter %q (valid: bench, config)", k),
				http.StatusBadRequest)
			return
		}
	}
	b := bench.ByName(q.Get("bench"))
	if b == nil {
		http.Error(w, fmt.Sprintf("bad request: unknown bench %q (valid: %s)",
			q.Get("bench"), strings.Join(benchNames(), ", ")), http.StatusBadRequest)
		return
	}
	spec := specByName(q.Get("config"))
	if spec == nil {
		http.Error(w, fmt.Sprintf("bad request: unknown config %q (valid: %s)",
			q.Get("config"), strings.Join(configNames(), ", ")), http.StatusBadRequest)
		return
	}

	rep, err := s.staticReport(b, spec)
	if err != nil {
		if writeVerifyRejection(w, point{Bench: b.Name, Config: spec.Name}, err) {
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, struct {
		Bench string `json:"bench"`
		*static.Report
	}{b.Name, rep})
}

// staticReport compiles and analyzes one bench×config image. The
// analyzer is fast enough (milliseconds per image) to run on the
// request goroutine; compilation re-verifies the image, so a dirty one
// surfaces as *verify.Error here.
func (s *server) staticReport(b *bench.Benchmark, spec *isa.Spec) (*static.Report, error) {
	c, err := mcc.Compile(b.Name+".mc", b.Source, spec)
	if err != nil {
		var verr *verify.Error
		if errors.As(err, &verr) {
			return nil, verr
		}
		return nil, err
	}
	return static.Analyze(c.Image, spec)
}
