package main

import (
	"crypto/sha256"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/isa"
	"repro/internal/mcc"
	"repro/internal/prog"
	"repro/internal/sim"
)

// imageCost is one distinct program image's observer-detached replay:
// the time of a bare interpretation (sim.Run with no observers) and of
// one predecode, and the run's exact instruction count.
type imageCost struct {
	bare   float64
	dec    float64
	instrs int64
	key    [sha256.Size]byte // decode's content address: rules + text
}

// replayer replays, after a traced run, every image the run simulated,
// so that the time inside "run" spans (and the predecode inside lab
// spans) can be split between interpretation and the timing observers.
type replayer struct {
	lab        *core.Lab
	byName     map[string]*imageCost
	byImg      map[*prog.Image]*imageCost
	unresolved int
	bareTotal  float64
}

func newReplayer(lab *core.Lab) *replayer {
	return &replayer{lab: lab, byName: map[string]*imageCost{}, byImg: map[*prog.Image]*imageCost{}}
}

// cost returns the replayed cost of the image the lab compiled for
// bench×config, or nil when the lab holds no such compile.
func (r *replayer) cost(benchName, config string) *imageCost {
	k := benchName + "|" + config
	if c, ok := r.byName[k]; ok {
		return c
	}
	var c *imageCost
	if comp := r.compiled(benchName, config); comp != nil {
		if c = r.byImg[comp.Image]; c == nil {
			c = replayImage(comp.Image)
			r.byImg[comp.Image] = c
		}
	} else {
		r.unresolved++
	}
	r.byName[k] = c
	return c
}

// compiled returns the lab's memoized compile of bench×config. The lab
// memoizes compiles by benchmark and configuration name, so stand-ins
// carrying only the names find the entry; a name the lab never compiled
// would compile the empty stand-in instead, which fails and yields nil.
func (r *replayer) compiled(benchName, config string) (c *mcc.Compiled) {
	defer func() {
		if recover() != nil {
			c = nil
		}
	}()
	comp, err := r.lab.Compile(&bench.Benchmark{Name: benchName}, &isa.Spec{Name: config})
	if err != nil || comp == nil || comp.Image == nil {
		return nil
	}
	return comp
}

// replayBudget bounds a replayed run; every replayed image already ran
// to completion under its own (smaller) budget.
const replayBudget = 1 << 40

// replayImage times one predecode (the median of three) and one bare
// run of img.
func replayImage(img *prog.Image) *imageCost {
	c := &imageCost{}
	h := sha256.New()
	hdr := [2]byte{byte(img.Enc)}
	if img.Cmp8 {
		hdr[1] = 1
	}
	h.Write(hdr[:])
	h.Write(img.Text)
	h.Sum(c.key[:0])

	var decs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		decode.Decode(img)
		decs = append(decs, time.Since(t0).Seconds())
	}
	c.dec = median(decs)

	m, err := sim.Acquire(img)
	if err != nil {
		return c
	}
	t0 := time.Now()
	err = m.Run(replayBudget)
	c.bare = time.Since(t0).Seconds()
	c.instrs = m.Stats.Instrs
	sim.Release(m)
	if err != nil {
		c.bare, c.instrs = 0, 0
	}
	return c
}

// chargeSpans charges every span's share of a traced in-process run to
// its layer, splitting lab and run spans with the replayed costs, and
// counts the simulations. The root span's share goes to other_s after
// rootCarves (replayed work the root did without a span of its own).
func chargeSpans(spans []*span, rp *replayer, layers, counts map[string]float64, rootCarves ...carve) {
	decoded := map[[sha256.Size]byte]bool{}
	for _, s := range spans {
		switch {
		case labKinds[s.name]:
			counts["core.runs"]++
			switch s.name {
			case "cache-sweep":
				counts["cache.runs"]++
			case "pipeline-run", "account-run":
				counts["pipeline.runs"]++
			}
			var cv []carve
			c := rp.cost(s.attr("bench"), s.attr("config"))
			if c != nil {
				counts["sim.instrs"] += float64(c.instrs)
				if !decoded[c.key] {
					decoded[c.key] = true
					cv = append(cv, carve{"decode.busy_s", c.dec})
				}
			}
			if s.hasRun {
				split(layers, s, "core.self_s", cv...)
				continue
			}
			// No run span inside (bus-profile): the run happened in
			// this span's own time.
			if c != nil {
				cv = append(cv, carve{"sim.busy_s", c.bare})
				rp.bareTotal += c.bare
			}
			split(layers, s, observerLayer(s.name), cv...)
		case s.name == "run" && s.parent >= 0:
			p := spans[s.parent]
			var cv []carve
			if c := rp.cost(p.attr("bench"), p.attr("config")); c != nil {
				cv = append(cv, carve{"sim.busy_s", c.bare})
				rp.bareTotal += c.bare
			}
			split(layers, s, observerLayer(p.name), cv...)
		case s.parent < 0 && isBenchSpan(s):
			split(layers, s, "other_s", rootCarves...)
		default:
			switch s.name {
			case "verify":
				counts["verify.images"]++
			case "static":
				counts["static.images"]++
			}
			layers[layerOfSpan(s, spans)] += s.share
		}
	}
}

func isBenchSpan(s *span) bool { return strings.HasPrefix(s.name, benchPrefix) }
