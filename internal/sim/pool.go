package sim

import (
	"sync"

	"repro/internal/prog"
)

// Machines carry a 2 MiB flat memory each, and experiment sweeps build
// one machine per measurement point — historically a fresh allocation
// (and a fresh zeroing, and a fresh text decode) every time. The pool
// recycles released machines instead: Reset clears only the memory the
// previous tenancy dirtied and borrows the shared decode table, so a
// pooled acquire touches a few hundred kilobytes instead of allocating
// and zeroing two megabytes.
//
// Pools are per encoding so a reused machine's instruction width and
// register conventions usually already match, keeping resets cheap and
// the pools unpolluted when a sweep interleaves both ISAs.
var pools [2]sync.Pool

// Acquire returns a machine loaded with img, reusing a released machine
// of the same encoding when one is available. The result is
// indistinguishable from New(img) — asserted byte-for-byte, registers
// and stats included, by TestPooledResetMatchesFresh.
func Acquire(img *prog.Image) (*Machine, error) {
	if v := pools[int(img.Enc)&1].Get(); v != nil {
		m := v.(*Machine)
		if err := m.Reset(img); err == nil {
			return m, nil
		}
		// A failed reset (image too large for memory) leaves the machine
		// partially cleared; drop it and let New report the error.
	}
	return New(img)
}

// Release returns a machine to its encoding's pool. The caller must be
// finished with the machine, its observers and its output buffer;
// Release drops the observer references immediately (so released
// engines are collectable) and the next Acquire wipes the rest.
func Release(m *Machine) {
	if m == nil {
		return
	}
	m.detach()
	m.TraceW = nil
	pools[int(m.Enc)&1].Put(m)
}
