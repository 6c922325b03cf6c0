package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/store"
)

// runDiff answers `repro -diff baseline.mcst,current.mcst`, the surface
// gate: it diffs two columnar measurement stores with store.Diff at its
// default threshold and returns how many matched points' cycles
// regressed past it. The report names the worst movers and, per cycle
// bucket, the point where that cause grew most.
func runDiff(spec string) (int, error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return 0, fmt.Errorf("-diff wants two store files: -diff baseline.mcst,current.mcst")
	}
	a, err := store.ReadFile(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, err
	}
	b, err := store.ReadFile(strings.TrimSpace(parts[1]))
	if err != nil {
		return 0, err
	}
	rep := store.Diff(a, b, store.DiffOptions{})

	fmt.Printf("surface diff: %d vs %d points, %d matched (threshold %.0f%%)\n",
		rep.PointsA, rep.PointsB, rep.Matched, rep.Threshold*100)
	if len(rep.OnlyA) > 0 || len(rep.OnlyB) > 0 {
		fmt.Printf("  coverage: %d points only in baseline, %d only in current\n",
			len(rep.OnlyA), len(rep.OnlyB))
	}
	for _, d := range rep.Deltas {
		if d.Delta == 0 {
			continue
		}
		tag := "moved"
		switch {
		case d.Rel > rep.Threshold:
			tag = "REGRESSION"
		case d.Rel < -rep.Threshold:
			tag = "improved"
		}
		fmt.Printf("  %-10s %s: cycles %d -> %d (%+.1f%%, worst bucket %s)\n",
			tag, d.PointKey, d.CyclesA, d.CyclesB, d.Rel*100, orNone(d.WorstBucket))
	}
	for _, m := range rep.WorstByBucket {
		fmt.Printf("  bucket %-15s grew most at %s: +%d cycles (%.1f%% of point)\n",
			m.Bucket, m.PointKey, m.Delta, m.Rel*100)
	}
	if rep.Regressed > 0 {
		fmt.Fprintf(os.Stderr, "repro: %d point(s) regressed more than %.0f%% (worst %.1f%%)\n",
			rep.Regressed, rep.Threshold*100, rep.MaxRel*100)
		return rep.Regressed, nil
	}
	fmt.Printf("surface gate passes: %d regressed, %d improved, worst rel %+.1f%%\n",
		rep.Regressed, rep.Improved, rep.MaxRel*100)
	return 0, nil
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
