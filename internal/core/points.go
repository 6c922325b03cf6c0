package core

import (
	"strings"

	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// ConfigByName resolves a compiler configuration by its paper column
// name ("D16/16/2", "DLXe/32/3", ...) or the shorthands "d16" and
// "dlxe" (case-insensitive); nil when unknown. It is the shared name
// resolution of simd, repro -explain and the batch API.
func ConfigByName(name string) *isa.Spec {
	switch strings.ToLower(name) {
	case "d16":
		return isa.D16()
	case "dlxe":
		return isa.DLXe()
	}
	for _, s := range Configs() {
		if strings.EqualFold(s.Name, name) {
			return s
		}
	}
	return nil
}

// AccountPoint converts engine i of an accounted run, configured as ac,
// into a store point: bucket-for-bucket from the engine's attribution
// (so the store's sum==cycles invariant holds by construction) under
// the identity (bench, config, bus, waits, cachekb). Unlike PointsOver,
// which expands the closed-form Appendix A model, the point carries
// measured pipeline behaviour — including port contention and cache
// misses — which is what lets cached-memory configurations (CacheKB > 0)
// land in points.mcst at all.
func (m *Measurement) AccountPoint(i int, ac AccountConfig) store.Point {
	e := m.Engines[i]
	p := store.Point{
		Bench:        m.Bench,
		Config:       m.Spec.Name,
		BusBytes:     int64(ac.BusBytes),
		WaitStates:   ac.WaitStates,
		CacheKB:      int64(ac.CacheBytes / 1024),
		Cycles:       e.Cycles(),
		Instrs:       e.Instrs,
		IFetchBytes:  e.FetchBytes(),
		DMemBytes:    e.DataRequests * 4,
		SizeBytes:    int64(m.Size),
		TextBytes:    int64(m.TextBytes),
		StaticInstrs: int64(m.StaticInstrs),
	}
	bd := e.Breakdown()
	for b := 0; b < pipeline.NumBuckets; b++ {
		p.Buckets[b] = bd[b]
	}
	return p
}

// pointWaits is the wait-state grid Points expands over — the same
// ℓ = 0..3 range SummaryRow reports CPI over.
var pointWaits = []int64{0, 1, 2, 3}

// Points is the measurement's canonical point set: PointsOver the
// ℓ = 0..3 wait-state grid.
func (m *Measurement) Points() []store.Point { return m.PointsOver(pointWaits) }

// PointsOver expands the run's cacheless bus models into columnar store
// points: one point per observed fetch-bus width per wait-state count.
// The cycle attribution follows the Appendix A model exactly — useful
// issue cycles (one per instruction), interlock stalls in the
// load-delay bucket, and wait-state cycles split between the
// instruction- and data-side requests — so the bucket sum reconstructs
// Cycles() and store.Validate's invariant holds by construction.
func (m *Measurement) PointsOver(waits []int64) []store.Point {
	out := make([]store.Point, 0, len(m.Buses)*len(waits))
	for _, bus := range m.Buses {
		for _, w := range waits {
			p := store.Point{
				Bench:        m.Bench,
				Config:       m.Spec.Name,
				BusBytes:     int64(bus.BusBytes),
				WaitStates:   w,
				Cycles:       bus.Cycles(m.Stats.Instrs, m.Stats.Interlocks, w),
				Instrs:       m.Stats.Instrs,
				IFetchBytes:  bus.IRequests * int64(bus.BusBytes),
				DMemBytes:    bus.DRequests * 4,
				SizeBytes:    int64(m.Size),
				TextBytes:    int64(m.TextBytes),
				StaticInstrs: int64(m.StaticInstrs),
			}
			p.Buckets[store.BUseful] = m.Stats.Instrs
			p.Buckets[store.BLoadDelay] = m.Stats.Interlocks
			p.Buckets[store.BIFetchWait] = w * bus.IRequests
			p.Buckets[store.BDMemWait] = w * bus.DRequests
			out = append(out, p)
		}
	}
	return out
}

// Points returns the canonical point set of every memoized measurement
// — the surface `repro -json` persists as points.mcst and simd appends
// to its -store file as batches complete.
func (l *Lab) Points() []store.Point {
	var out []store.Point
	for _, m := range l.Measurements() {
		out = append(out, m.Points()...)
	}
	return store.Canon(out)
}
