package main

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestServeScriptSeeded: equal seeds give byte-identical request
// scripts; different seeds give different ones; every request is in
// the menu the reference covers.
func TestServeScriptSeeded(t *testing.T) {
	a, _ := json.Marshal(serveScript(defaultSeed, 300))
	b, _ := json.Marshal(serveScript(defaultSeed, 300))
	c, _ := json.Marshal(serveScript(heldOutSeed, 300))
	if string(a) != string(b) {
		t.Fatal("equal seeds gave different scripts")
	}
	if string(a) == string(c) {
		t.Fatal("different seeds gave the same script")
	}
	menu := map[string]bool{}
	for _, r := range serveMenu() {
		menu[r.Kind+"?"+r.Query] = true
	}
	keys := map[string]bool{}
	for _, k := range pointKeys() {
		keys[k] = true
	}
	kinds := map[string]int{}
	for _, r := range serveScript(defaultSeed, 2000) {
		kinds[r.Kind]++
		if r.Kind == "batch" {
			if len(r.Keys) < 1 || len(r.Keys) > maxBatchPoints {
				t.Errorf("batch of %d points", len(r.Keys))
			}
			for _, k := range r.Keys {
				if !keys[k] {
					t.Errorf("batch key %q outside the 15x5 grid", k)
				}
			}
		} else if !menu[r.Kind+"?"+r.Query] {
			t.Errorf("%s %q is not in the menu", r.Kind, r.Query)
		}
	}
	for _, k := range []string{"batch", "static", "query", "explain"} {
		if kinds[k] == 0 {
			t.Errorf("no %s requests in 2000", k)
		}
	}
}

// TestSweepCorpusSeeded: equal master seeds generate byte-identical
// corpora, different seeds different ones.
func TestSweepCorpusSeeded(t *testing.T) {
	gen := func(seed uint64) []string {
		progs, err := corpus(sweepSpec(seed, false))
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, p := range progs {
			out = append(out, p.Name+"\n"+p.Source)
		}
		return out
	}
	a, b, c := gen(defaultSeed), gen(defaultSeed), gen(heldOutSeed)
	if len(a) != 6*sweepCount {
		t.Fatalf("%d programs, want %d", len(a), 6*sweepCount)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds gave different corpora")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same corpus")
	}
}
