package cache

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestConfigValidation(t *testing.T) {
	bad := []struct {
		cfg  Config
		want string // part of the error message
	}{
		{Config{}, "zero geometry"},
		{Config{Size: 1024, BlockBytes: 24, SubBytes: 8, Assoc: 1}, "multiple of block"},
		{Config{Size: 1000, BlockBytes: 32, SubBytes: 8, Assoc: 1}, "multiple of block"},
		{Config{Size: 1024, BlockBytes: 32, SubBytes: 12, Assoc: 1}, "multiple of sub-block"},
		{Config{Size: 3072, BlockBytes: 48, SubBytes: 8, Assoc: 1}, "powers of two"},
		{Config{Size: 1024, BlockBytes: 32, SubBytes: 8, Assoc: 0}, "zero associativity"},
		{Config{Size: 1024, BlockBytes: 32, SubBytes: 8, Assoc: 3}, "not divisible by associativity"},
		// Traffic is counted in 32-bit words: a sub-block under one word
		// would move zero words per fill.
		{Config{Size: 1024, BlockBytes: 32, SubBytes: 2, Assoc: 1}, "under one 32-bit word"},
		{Config{Size: 1024, BlockBytes: 32, SubBytes: 1, Assoc: 1}, "under one 32-bit word"},
		// A line tracks its sub-blocks in 64-bit masks.
		{Config{Size: 4096, BlockBytes: 512, SubBytes: 4, Assoc: 1}, "128 sub-blocks per block"},
	}
	for _, tc := range bad {
		_, err := New(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("config %+v: error %v, want one containing %q", tc.cfg, err, tc.want)
		}
	}
	good := []Config{
		PaperConfig(4096),
		PaperConfigSub(1024, 8),
		PaperConfigSub(16384, 64),
		{Size: 4096, BlockBytes: 32, SubBytes: 8, Assoc: 2},
		{Size: 4096, BlockBytes: 256, SubBytes: 4, Assoc: 1}, // 64 sub-blocks
	}
	for _, cfg := range good {
		if _, err := New(cfg); err != nil {
			t.Errorf("config %+v rejected: %v", cfg, err)
		}
	}
}

func TestColdMissAndHit(t *testing.T) {
	c := MustNew(PaperConfig(1024))
	if !c.Read(0x1000) {
		t.Fatal("cold read must miss")
	}
	if c.Read(0x1000) {
		t.Fatal("second read must hit")
	}
	// Wrap-around prefetch makes the next word a hit too.
	if c.Read(0x1004) {
		t.Fatal("prefetched word must hit")
	}
	// Two words ahead is another sub-block: miss.
	if !c.Read(0x1008) {
		t.Fatal("non-prefetched sub-block must miss")
	}
	if got := c.Stats.ReadMisses; got != 2 {
		t.Fatalf("read misses = %d, want 2", got)
	}
}

func TestWrapAroundPrefetchWraps(t *testing.T) {
	c := MustNew(PaperConfig(1024)) // 32-byte blocks, 4-byte sub-blocks
	// Miss on the LAST sub-block of a block: prefetch wraps to the first.
	if !c.Read(0x101C) {
		t.Fatal("cold read must miss")
	}
	if c.Read(0x1000) {
		t.Fatal("wrap-around prefetch should have filled the first sub-block")
	}
	if !c.Read(0x1004) {
		t.Fatal("0x1004 was neither fetched nor prefetched; must miss")
	}
}

// The wrap also holds at the widest block a line can track: 64
// sub-blocks.
func TestWrapAroundPrefetchWraps64(t *testing.T) {
	c := MustNew(Config{Size: 1024, BlockBytes: 256, SubBytes: 4, Assoc: 1})
	if !c.Read(0x10FC) {
		t.Fatal("cold read must miss")
	}
	if c.Stats.MemReadWords != 2 {
		t.Errorf("miss plus prefetch moved %d words, want 2", c.Stats.MemReadWords)
	}
	if c.Read(0x1000) {
		t.Fatal("wrap-around prefetch should have filled the first sub-block")
	}
}

func TestConflictEviction(t *testing.T) {
	c := MustNew(PaperConfig(1024))
	a, b := uint32(0x0000), uint32(0x0400) // same index, different tags
	c.Read(a)
	c.Read(b) // evicts a
	if !c.Read(a) {
		t.Fatal("conflicting address should have evicted the line")
	}
}

func TestAssociativityAvoidsConflict(t *testing.T) {
	dm := MustNew(Config{Size: 1024, BlockBytes: 32, SubBytes: 4, Assoc: 1})
	sa := MustNew(Config{Size: 1024, BlockBytes: 32, SubBytes: 4, Assoc: 2})
	for i := 0; i < 100; i++ {
		dm.Read(0x0000)
		dm.Read(0x0400)
		sa.Read(0x0000)
		sa.Read(0x0400)
	}
	if dm.Stats.ReadMisses <= sa.Stats.ReadMisses {
		t.Errorf("2-way (%d misses) should beat direct-mapped (%d) on a ping-pong conflict",
			sa.Stats.ReadMisses, dm.Stats.ReadMisses)
	}
	if sa.Stats.ReadMisses != 2 {
		t.Errorf("2-way misses = %d, want 2 cold misses only", sa.Stats.ReadMisses)
	}
}

func TestWriteBackTraffic(t *testing.T) {
	wb := MustNew(Config{Size: 256, BlockBytes: 32, SubBytes: 8, Assoc: 1})
	wt := MustNew(Config{Size: 256, BlockBytes: 32, SubBytes: 8, Assoc: 1, WriteThrough: true})
	// Write the same sub-block many times: write-back pays once on
	// eviction, write-through pays every time.
	for i := 0; i < 10; i++ {
		wb.Write(0x40)
		wt.Write(0x40)
	}
	wb.Read(0x40 + 256) // conflicting read evicts the dirty line
	wt.Read(0x40 + 256)
	if wb.Stats.MemWriteWords != 2 { // one 8-byte sub-block
		t.Errorf("write-back wrote %d words, want 2", wb.Stats.MemWriteWords)
	}
	if wt.Stats.MemWriteWords != 20 {
		t.Errorf("write-through wrote %d words, want 20", wt.Stats.MemWriteWords)
	}
}

func TestFlush(t *testing.T) {
	c := MustNew(PaperConfig(1024))
	c.Read(0x100)
	c.Flush()
	if !c.Read(0x100) {
		t.Fatal("read after flush must miss")
	}
}

// Property: miss count is monotonically non-increasing in cache size for a
// direct-mapped cache over the same trace — the paper's Figure 16 premise.
// (True for nested direct-mapped caches with LRU=trivial replacement.)
func TestMissesMonotonicInSize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trace := make([]uint32, 20000)
	base := uint32(0x1000)
	for i := range trace {
		// Loopy, local pattern: mixture of sequential runs and jumps.
		if rng.Intn(10) == 0 {
			base = uint32(0x1000 + rng.Intn(32<<10))
		}
		base += 4
		trace[i] = base &^ 3
	}
	var prev int64 = 1 << 62
	for _, size := range []uint32{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10} {
		c := MustNew(PaperConfig(size))
		for _, a := range trace {
			c.Read(a)
		}
		if c.Stats.ReadMisses > prev {
			t.Errorf("size %d has %d misses, more than the smaller cache's %d",
				size, c.Stats.ReadMisses, prev)
		}
		prev = c.Stats.ReadMisses
	}
}

// Property: for any access sequence, hits + misses == accesses and traffic
// is consistent with misses.
func TestAccountingInvariants(t *testing.T) {
	f := func(addrs []uint32, writes []bool) bool {
		c := MustNew(PaperConfigSub(2048, 32))
		var reads, wr int64
		for i, a := range addrs {
			a %= 1 << 20
			if i < len(writes) && writes[i] {
				c.Write(a)
				wr++
			} else {
				c.Read(a)
				reads++
			}
		}
		s := c.Stats
		if s.Reads != reads || s.Writes != wr {
			return false
		}
		if s.ReadMisses > s.Reads || s.WriteMisses > s.Writes {
			return false
		}
		// Each read miss moves one or two sub-blocks (prefetch), each
		// write miss exactly one; write-back traffic bounded by dirty data.
		minWords := (s.ReadMisses + s.WriteMisses) * 2 // 8-byte sub-blocks = 2 words
		maxWords := (s.ReadMisses*2 + s.WriteMisses) * 2
		return s.MemReadWords >= minWords && s.MemReadWords <= maxWords
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
