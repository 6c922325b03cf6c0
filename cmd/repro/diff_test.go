package main

import (
	"path/filepath"
	"testing"

	"repro/internal/store"
)

func surfacePoint(benchName string, cycles, ifetch int64) store.Point {
	p := store.Point{
		Bench: benchName, Config: "D16/16/2", BusBytes: 2, WaitStates: 1,
		Cycles: cycles, Instrs: cycles - ifetch,
	}
	p.Buckets[store.BUseful] = cycles - ifetch
	p.Buckets[store.BIFetchWait] = ifetch
	return p
}

// TestRunDiff writes two stores where one point carries a +15% cycle
// regression and checks the gate counts exactly that, while the clean
// pair passes.
func TestRunDiff(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.mcst")
	b := filepath.Join(dir, "b.mcst")
	c := filepath.Join(dir, "c.mcst")

	base := []store.Point{surfacePoint("queens", 1000, 100), surfacePoint("towers", 2000, 200)}
	regressed := []store.Point{surfacePoint("queens", 1150, 250), surfacePoint("towers", 2000, 200)}

	for path, pts := range map[string][]store.Point{a: base, b: regressed, c: base} {
		if err := store.WriteFile(path, pts); err != nil {
			t.Fatal(err)
		}
	}

	n, err := runDiff(a + "," + b)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("surface gate counted %d regressed points, want 1", n)
	}

	if n, err := runDiff(a + "," + c); err != nil || n != 0 {
		t.Fatalf("identical surfaces failed the gate: %d regressed, err %v", n, err)
	}

	if _, err := runDiff(a); err == nil {
		t.Fatal("single-file spec accepted")
	}
	if _, err := runDiff(a + "," + filepath.Join(dir, "missing.mcst")); err == nil {
		t.Fatal("missing store accepted")
	}
}
