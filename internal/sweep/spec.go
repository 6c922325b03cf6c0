// Package sweep is the full-factorial design-space driver: it crosses
// workload class × ISA × bus width × wait states × cache size × miss
// penalty, generates a verified synthetic corpus for the workload axes
// (internal/synth), fans the grid through the jobs scheduler, and
// streams the resulting points into a deterministic .mcst surface that
// repro -query and repro -diff consume. docs/SWEEP.md documents
// the grammar and the guarantees.
package sweep

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/synth"
)

// Spec is one parsed sweep specification: the workload corpus to
// generate and the hardware grid to cross it with.
type Spec struct {
	Classes []string // workload classes (subset of synth.Classes)
	Count   int      // programs per class
	Seed    uint64   // master seed; per-program seeds derive from (Seed, class, index)

	// ProgSeed, when set, bypasses derivation: program i of every class
	// uses generator seed ProgSeed+i. This is the repro path — the
	// failure artifact prints `count=1 progseed=<seed>` so one exact
	// program regenerates.
	ProgSeed    uint64
	HasProgSeed bool

	Configs     []*isa.Spec // compiler/ISA targets
	Bus         []uint32    // fetch/data bus widths in bytes (2, 4 or 8)
	Waits       []int64     // memory wait states (cacheless cells)
	CacheKB     []int64     // cache sizes in KiB; 0 = cacheless
	MissPenalty []int64     // miss penalties in cycles (cached cells)

	MaxInstrs int64 // per-program execution budget
}

// Defaults returns the specification an empty string parses to: every
// workload class, eight programs per class, both paper ISAs, the paper
// bus widths and wait-state range, cacheless.
func Defaults() *Spec {
	return &Spec{
		Classes:     synth.Classes(),
		Count:       8,
		Seed:        1,
		Configs:     []*isa.Spec{isa.D16(), isa.DLXe()},
		Bus:         []uint32{4, 8},
		Waits:       []int64{0, 1, 2, 3},
		CacheKB:     []int64{0},
		MissPenalty: []int64{8},
		MaxInstrs:   synth.DefaultMaxInstrs,
	}
}

// Parse reads the sweep grammar: whitespace-separated key=value terms,
// comma-separated value lists, lo-hi ranges for integer lists.
//
//	classes=loopy,callheavy count=50 seed=7 isa=d16,dlxe
//	bus=2,4 waits=0-3 cachekb=0,1,4,16 misspenalty=8
//
// Omitted keys keep the Defaults value.
func Parse(s string) (*Spec, error) {
	spec := Defaults()
	for _, term := range strings.Fields(s) {
		k, v, ok := strings.Cut(term, "=")
		if !ok || v == "" {
			return nil, fmt.Errorf("sweep: term %q is not key=value", term)
		}
		var err error
		switch k {
		case "classes", "class":
			spec.Classes = strings.Split(v, ",")
		case "count":
			spec.Count, err = strconv.Atoi(v)
		case "seed":
			spec.Seed, err = strconv.ParseUint(v, 0, 64)
		case "progseed":
			spec.ProgSeed, err = strconv.ParseUint(v, 0, 64)
			spec.HasProgSeed = true
		case "isa", "config", "configs":
			spec.Configs = spec.Configs[:0]
			for _, name := range strings.Split(v, ",") {
				cfg := core.ConfigByName(name)
				if cfg == nil {
					return nil, fmt.Errorf("sweep: unknown config %q", name)
				}
				spec.Configs = append(spec.Configs, cfg)
			}
		case "bus":
			var ws []int64
			if ws, err = intList(v); err == nil {
				spec.Bus = spec.Bus[:0]
				for _, w := range ws {
					spec.Bus = append(spec.Bus, uint32(w))
				}
			}
		case "waits":
			spec.Waits, err = intList(v)
		case "cachekb":
			spec.CacheKB, err = intList(v)
		case "misspenalty":
			spec.MissPenalty, err = intList(v)
		case "maxinstrs":
			spec.MaxInstrs, err = strconv.ParseInt(v, 0, 64)
		default:
			return nil, fmt.Errorf("sweep: unknown key %q (valid: classes count seed progseed isa bus waits cachekb misspenalty maxinstrs)", k)
		}
		if err != nil {
			return nil, fmt.Errorf("sweep: bad value in %q: %v", term, err)
		}
	}
	return spec, spec.validate()
}

// intList parses "0,2,5-7" into [0 2 5 6 7].
func intList(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseInt(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%q is not an integer", lo)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseInt(hi, 10, 64); err != nil {
				return nil, fmt.Errorf("%q is not an integer", hi)
			}
		}
		if b < a {
			return nil, fmt.Errorf("range %q is reversed", part)
		}
		if b-a > 64 {
			return nil, fmt.Errorf("range %q is too wide", part)
		}
		for v := a; v <= b; v++ {
			out = append(out, v)
		}
	}
	return out, nil
}

func (s *Spec) validate() error {
	if len(s.Classes) == 0 || s.Count <= 0 {
		return fmt.Errorf("sweep: need at least one class and count >= 1")
	}
	valid := map[string]bool{}
	for _, c := range synth.Classes() {
		valid[c] = true
	}
	for _, c := range s.Classes {
		if !valid[c] {
			return fmt.Errorf("sweep: unknown class %q (valid: %s)", c, strings.Join(synth.Classes(), ","))
		}
	}
	if len(s.Configs) == 0 {
		return fmt.Errorf("sweep: need at least one config")
	}
	if len(s.Bus) == 0 {
		return fmt.Errorf("sweep: need at least one bus width")
	}
	for _, w := range s.Bus {
		if w != 2 && w != 4 && w != 8 {
			return fmt.Errorf("sweep: bus width %d (bytes) not in {2, 4, 8}", w)
		}
	}
	if len(s.Waits) == 0 {
		return fmt.Errorf("sweep: need at least one wait-state count")
	}
	for _, w := range s.Waits {
		if w < 0 || w > 64 {
			return fmt.Errorf("sweep: wait states %d out of range 0..64", w)
		}
	}
	for _, kb := range s.CacheKB {
		if kb != 0 && (kb < 1 || kb > 64 || kb&(kb-1) != 0) {
			return fmt.Errorf("sweep: cache size %d KB must be 0 or a power of two in 1..64", kb)
		}
	}
	for _, mp := range s.MissPenalty {
		if mp < 1 || mp > 256 {
			return fmt.Errorf("sweep: miss penalty %d out of range 1..256", mp)
		}
	}
	if s.MaxInstrs <= 0 {
		return fmt.Errorf("sweep: maxinstrs must be positive")
	}
	return nil
}

// Programs is the corpus size the spec enumerates.
func (s *Spec) Programs() int { return len(s.Classes) * s.Count }

// ProgramSeed is the generator seed of program index i in class.
func (s *Spec) ProgramSeed(class string, i int) uint32 {
	if s.HasProgSeed {
		return uint32(s.ProgSeed) + uint32(i)
	}
	return synth.DeriveSeed(s.Seed, class, i)
}

// CachedCells lists the cached-memory grid cells (bus × cache size ×
// miss penalty for every CacheKB > 0) as account configurations. For a
// cached cell the flat wait-state axis does not apply (hits are free,
// misses cost the penalty), so the point's wait-state column records
// the miss penalty — keeping the (bench, config, bus, waits, cachekb)
// point identity unique across the full factorial grid.
func (s *Spec) CachedCells() []core.AccountConfig {
	var out []core.AccountConfig
	for _, kb := range s.CacheKB {
		if kb == 0 {
			continue
		}
		for _, bus := range s.Bus {
			for _, mp := range s.MissPenalty {
				out = append(out, core.AccountConfig{
					BusBytes:    bus,
					WaitStates:  mp,
					CacheBytes:  uint32(kb) * 1024,
					MissPenalty: mp,
				})
			}
		}
	}
	return out
}

// String renders the spec back in canonical grammar form (used in the
// deterministic sweep header).
func (s *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "classes=%s count=%d", strings.Join(s.Classes, ","), s.Count)
	if s.HasProgSeed {
		fmt.Fprintf(&b, " progseed=%d", s.ProgSeed)
	} else {
		fmt.Fprintf(&b, " seed=%d", s.Seed)
	}
	names := make([]string, len(s.Configs))
	for i, c := range s.Configs {
		names[i] = c.Name
	}
	fmt.Fprintf(&b, " isa=%s bus=%s waits=%s cachekb=%s misspenalty=%s",
		strings.Join(names, ","), joinU32(s.Bus), joinI64(s.Waits),
		joinI64(s.CacheKB), joinI64(s.MissPenalty))
	return b.String()
}

func joinU32(vs []uint32) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatUint(uint64(v), 10)
	}
	return strings.Join(parts, ",")
}

func joinI64(vs []int64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatInt(v, 10)
	}
	return strings.Join(parts, ",")
}
