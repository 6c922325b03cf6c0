package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/telemetry"
)

// The traced run charges host time to the repo's modules from spans:
// the program's own telemetry spans (compile, assemble, link, verify,
// static, jobs.run, measure, cache-sweep, pipeline-run, account-run,
// bus-profile, run) plus the benchmark's spans around its top-level
// calls and requests (names starting "bench.", carrying explicit sid
// and parent attributes). Program spans carry no parent, so parents are
// inferred by time containment under the call structure the code has.

// benchPrefix marks the benchmark's own spans.
const benchPrefix = "bench."

// labKinds are the simulation spans the lab emits; each runs inside the
// scheduler job named "<span name> <bench>|<config>".
var labKinds = map[string]bool{
	"measure": true, "cache-sweep": true, "pipeline-run": true,
	"account-run": true, "bus-profile": true,
}

// span is one recorded interval with its inferred place in the call
// tree. Times are seconds since the tracer's epoch.
type span struct {
	name       string
	start, end float64
	attrs      map[string]string
	parent     int // index into the span list, -1 for a root
	lane       int // one per goroutine-like strand of nested calls
	hasRun     bool

	busy  float64 // seconds this span was the innermost of its lane
	share float64 // busy, divided among the lanes busy at the same time
}

func (s *span) contains(o *span) bool { return s.start <= o.start && o.end <= s.end }

func (s *span) attr(k string) string { return s.attrs[k] }

// buildSpans converts tracer events to spans and infers their parents.
// pooled says whether scheduler jobs ran on worker goroutines (each
// jobs.run then starts its own lane) or inline on the submitter.
//
// Inference rules, from the code's call structure:
//   - a "run" span is the child of the lab span with the same bench and
//     config that contains it;
//   - a lab span is the child of the jobs.run whose job name names it;
//   - a benchmark span names its parent explicitly (sid/parent attrs)
//     and may name its own lane;
//   - every other span is the child of the innermost span containing it
//     on the submitting strand (lane 0).
func buildSpans(evs []telemetry.Event, pooled bool) []*span {
	spans := make([]*span, len(evs))
	for i, e := range evs {
		spans[i] = &span{name: e.Name, start: e.TS / 1e6, end: (e.TS + e.Dur) / 1e6, attrs: e.Args, parent: -1}
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].end > spans[j].end
	})
	sids := map[string]int{}
	for i, s := range spans {
		if sid := s.attr("sid"); sid != "" {
			sids[sid] = i
		}
	}
	innermost := func(i int, ok func(p *span) bool) int {
		for j := i - 1; j >= 0; j-- {
			if spans[j].contains(spans[i]) && ok(spans[j]) {
				return j
			}
		}
		return -1
	}
	onMain := func(p *span) bool { return p.lane == 0 }
	lanes := 0
	newLane := func() int { lanes++; return lanes }
	for i, s := range spans {
		switch {
		case isBenchSpan(s):
			if p, ok := sids[s.attr("parent")]; ok {
				s.parent = p
			}
		case s.name == "run":
			s.parent = innermost(i, func(p *span) bool {
				return labKinds[p.name] && p.attr("bench") == s.attr("bench") && p.attr("config") == s.attr("config")
			})
			if s.parent >= 0 {
				spans[s.parent].hasRun = true
			}
		case labKinds[s.name]:
			job := s.name + " " + s.attr("bench") + "|" + s.attr("config")
			s.parent = innermost(i, func(p *span) bool { return p.name == "jobs.run" && p.attr("job") == job })
		case s.name == "jobs.run" && pooled:
			// A pooled job runs on a worker for the workload's root,
			// which submitted it.
			s.parent = innermost(i, func(p *span) bool { return p.lane == 0 && p.parent < 0 })
			s.lane = newLane()
			continue
		}
		if s.parent < 0 {
			s.parent = innermost(i, onMain)
		}
		if l := s.attr("lane"); l != "" {
			n, err := strconv.Atoi(l)
			if err == nil {
				s.lane = n
				if n > lanes {
					lanes = n
				}
			}
		} else if s.parent >= 0 {
			s.lane = spans[s.parent].lane
		}
	}
	return spans
}

// rootWindow is the interval of the workload's root span (sid 0).
func rootWindow(spans []*span) (w0, w1 float64) {
	for _, s := range spans {
		if s.parent < 0 && s.attr("sid") == "0" {
			return s.start, s.end
		}
	}
	return 0, 0
}

// attribute splits the window [w0, w1] among the spans: at every
// instant each lane's innermost active span is busy, and the instant is
// shared equally among the busy lanes, so that the shares of all spans
// plus the returned idle time sum to the window exactly. A lane whose
// innermost span is the parent of another active lane (a root waiting
// on its clients or pooled jobs) is waiting, not busy: its span still
// accrues busy time, which scales replay estimates, but no share.
func attribute(spans []*span, w0, w1 float64) (idle float64) {
	type event struct {
		t     float64
		start bool
		s     *span
	}
	evs := make([]event, 0, 2*len(spans))
	for _, s := range spans {
		a, b := math.Max(s.start, w0), math.Min(s.end, w1)
		if a < b {
			evs = append(evs, event{a, true, s}, event{b, false, s})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		if evs[i].start != evs[j].start {
			return !evs[i].start // ends first
		}
		if evs[i].start {
			return evs[i].s.end > evs[j].s.end // outer spans open first
		}
		return false
	})
	stacks := map[int][]*span{}
	prev := w0
	advance := func(t float64) {
		dt := t - prev
		if dt <= 0 {
			return
		}
		prev = t
		var busy []*span
		for _, st := range stacks {
			top := st[len(st)-1]
			top.busy += dt
			waiting := false
			for _, other := range stacks {
				if p := other[0].parent; p >= 0 && spans[p] == top && &other[0] != &st[0] {
					waiting = true
				}
			}
			if !waiting {
				busy = append(busy, top)
			}
		}
		if len(busy) == 0 {
			idle += dt
			return
		}
		for _, s := range busy {
			s.share += dt / float64(len(busy))
		}
	}
	for _, e := range evs {
		advance(e.t)
		st := stacks[e.s.lane]
		if e.start {
			stacks[e.s.lane] = append(st, e.s)
			continue
		}
		for i := len(st) - 1; i >= 0; i-- {
			if st[i] == e.s {
				st = append(st[:i], st[i+1:]...)
				break
			}
		}
		if len(st) == 0 {
			delete(stacks, e.s.lane)
		} else {
			stacks[e.s.lane] = st
		}
	}
	advance(w1)
	return idle
}

// carve is an estimate, from an observer-detached replay, of the time a
// span spent in a layer that has no span of its own.
type carve struct {
	layer string
	est   float64
}

// split charges a span's share: the carved layers get their estimates
// (scaled from busy time to share, and capped so that together they
// never exceed the span), and the rest goes to rest.
func split(into map[string]float64, s *span, rest string, carves ...carve) {
	var total float64
	for _, c := range carves {
		total += c.est
	}
	scale := 0.0
	if s.busy > 0 {
		scale = s.share / s.busy
		if total > s.busy {
			scale = s.share / total
		}
	}
	left := s.share
	for _, c := range carves {
		v := c.est * scale
		into[c.layer] += v
		left -= v
	}
	into[rest] += left
}

// layerOfSpan names the layer a program span's own time belongs to.
func layerOfSpan(s *span, spans []*span) string {
	switch s.name {
	case "compile":
		return "mcc.busy_s"
	case "assemble", "link":
		return "asm.busy_s"
	case "verify":
		return "verify.busy_s"
	case "static":
		return "static.busy_s"
	case "jobs.run":
		return "jobs.self_s"
	case "run":
		if s.parent >= 0 {
			return observerLayer(spans[s.parent].name)
		}
		return "other_s"
	case "bench.experiment":
		return "experiments.self_s"
	case "bench.request":
		return "simd.busy_s"
	}
	if labKinds[s.name] {
		return "core.self_s"
	}
	return "other_s"
}

// observerLayer names the timing-model layer whose observers a lab span
// attaches to its run.
func observerLayer(lab string) string {
	switch lab {
	case "cache-sweep":
		return "cache.observe_s"
	case "pipeline-run", "account-run":
		return "pipeline.observe_s"
	}
	return "memsys.observe_s" // measure, bus-profile: cacheless bus models
}

// checkPartition verifies the traced invariant: the time layers sum to
// the traced wall time.
func checkPartition(layers map[string]float64, wall float64) error {
	var sum float64
	for _, l := range timeLayers {
		sum += layers[l]
	}
	if d := math.Abs(sum - wall); d > 1e-6*wall+1e-9 {
		return fmt.Errorf("layer times sum to %.9f s, traced wall is %.9f s", sum, wall)
	}
	return nil
}
