// Package cache implements the dinero-style cache simulator the paper
// uses for its Section 4.1 experiments: direct-mapped (optionally
// set-associative) caches organized in blocks of sub-blocks, with
// wrap-around prefetch of the following sub-block on read misses and no
// prefetch on writes. Validity is tracked per sub-block; a tag match with
// an invalid sub-block is still a miss (a sub-block fetch), as in dinero's
// sub-block mode.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/telemetry"
)

// Config describes one cache.
type Config struct {
	// Size is the total capacity in bytes.
	Size uint32
	// BlockBytes is the block (line) size: the tag granularity.
	BlockBytes uint32
	// SubBytes is the sub-block (transfer) size.
	SubBytes uint32
	// Assoc is the set associativity; the paper uses 1 (direct-mapped).
	Assoc uint32
	// WritePolicy selects WriteBack (default, dinero's default) or
	// WriteThrough accounting for write traffic.
	WriteThrough bool
	// NoWriteAllocate, when set, sends write misses straight to memory
	// without filling the line.
	NoWriteAllocate bool
	// NoPrefetch disables the wrap-around read prefetch.
	NoPrefetch bool
}

// Validate checks structural sanity.
func (c Config) Validate() error {
	switch {
	case c.Size == 0 || c.BlockBytes == 0 || c.SubBytes == 0:
		return fmt.Errorf("cache: zero geometry %+v", c)
	case c.SubBytes < 4:
		return fmt.Errorf("cache: sub-block %d bytes is under one 32-bit word; traffic is counted in whole words", c.SubBytes)
	case c.BlockBytes%c.SubBytes != 0:
		return fmt.Errorf("cache: block %d not a multiple of sub-block %d", c.BlockBytes, c.SubBytes)
	case c.Size%c.BlockBytes != 0:
		return fmt.Errorf("cache: size %d not a multiple of block %d", c.Size, c.BlockBytes)
	case c.Assoc == 0:
		return fmt.Errorf("cache: zero associativity")
	case c.Size/c.BlockBytes%c.Assoc != 0:
		return fmt.Errorf("cache: %d blocks not divisible by associativity %d", c.Size/c.BlockBytes, c.Assoc)
	case !pow2(c.Size) || !pow2(c.BlockBytes) || !pow2(c.SubBytes):
		return fmt.Errorf("cache: geometry must be powers of two: %+v", c)
	case c.BlockBytes/c.SubBytes > maxSubBlocks:
		return fmt.Errorf("cache: %d sub-blocks per block, at most %d are tracked", c.BlockBytes/c.SubBytes, maxSubBlocks)
	}
	return nil
}

// maxSubBlocks is the most sub-blocks a block may hold: a line keeps its
// valid and dirty sub-blocks as 64-bit masks.
const maxSubBlocks = 64

func pow2(v uint32) bool { return v != 0 && v&(v-1) == 0 }

// Stats accumulates cache activity.
type Stats struct {
	Reads       int64 // read accesses (instruction fetches or data reads)
	Writes      int64
	ReadMisses  int64
	WriteMisses int64
	// MemReadWords / MemWriteWords count 32-bit words moved between the
	// cache and memory (fills, prefetches, write-backs/throughs).
	MemReadWords  int64
	MemWriteWords int64
}

// Misses returns total misses.
func (s *Stats) Misses() int64 { return s.ReadMisses + s.WriteMisses }

// MissRate returns misses per access.
func (s *Stats) MissRate() float64 {
	if s.Reads+s.Writes == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(s.Reads+s.Writes)
}

// ReadMissRate returns read misses per read access.
func (s *Stats) ReadMissRate() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.ReadMisses) / float64(s.Reads)
}

// WriteMissRate returns write misses per write access.
func (s *Stats) WriteMissRate() float64 {
	if s.Writes == 0 {
		return 0
	}
	return float64(s.WriteMisses) / float64(s.Writes)
}

// Register publishes the hit/miss/traffic counters as live gauges under
// prefix; the simulation fields stay the single source of truth and the
// probe hot path is untouched.
func (s *Stats) Register(reg *telemetry.Registry, prefix string) {
	for _, f := range []struct {
		name string
		v    *int64
	}{
		{"reads", &s.Reads},
		{"writes", &s.Writes},
		{"read_misses", &s.ReadMisses},
		{"write_misses", &s.WriteMisses},
		{"mem_read_words", &s.MemReadWords},
		{"mem_write_words", &s.MemWriteWords},
	} {
		v := f.v
		reg.RegisterFunc(prefix+f.name, func() int64 { return *v })
	}
	reg.RegisterFunc(prefix+"misses", s.Misses)
}

// lineUsed marks an occupied line in tags. A line's tag is its whole
// block number, which never reaches bit 31: a block is at least four
// bytes.
const lineUsed = 1 << 31

// Cache is one simulated cache. Its lines live in flat per-line arrays
// indexed set*Assoc+way, and every index is a shift or a mask
// precomputed from the power-of-two geometry.
type Cache struct {
	cfg   Config
	tags  []uint32 // block number|lineUsed of each line; 0 is an empty line
	valid []uint64 // per-line sub-block valid bits
	dirty []uint64 // per-line sub-block dirty bits
	lru   []int64  // tick of each line's last touch (consulted only when Assoc > 1)

	assoc      int
	blockShift uint32 // addr >> blockShift is the block number
	setMask    uint32 // block & setMask is the set
	subShift   uint32 // addr >> subShift & subMask is the sub-block
	subMask    uint32
	subWords   int64 // words moved per sub-block transfer

	tick  int64
	Stats Stats
}

// New builds a cache; the configuration must validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lines := cfg.Size / cfg.BlockBytes
	return &Cache{
		cfg:        cfg,
		tags:       make([]uint32, lines),
		valid:      make([]uint64, lines),
		dirty:      make([]uint64, lines),
		lru:        make([]int64, lines),
		assoc:      int(cfg.Assoc),
		blockShift: log2(cfg.BlockBytes),
		setMask:    lines/cfg.Assoc - 1,
		subShift:   log2(cfg.SubBytes),
		subMask:    cfg.BlockBytes/cfg.SubBytes - 1,
		subWords:   int64(cfg.SubBytes / 4),
	}, nil
}

// log2 of a power of two.
func log2(v uint32) uint32 { return uint32(bits.TrailingZeros32(v)) }

// MustNew is New for static configurations known to be valid.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// locate returns the first line of addr's set, its tag (as stored in
// tags) and its sub-block bit.
func (c *Cache) locate(addr uint32) (base int, tag uint32, bit uint64) {
	block := addr >> c.blockShift
	return int(block&c.setMask) * c.assoc, block | lineUsed, 1 << (addr >> c.subShift & c.subMask)
}

// findWay returns the line of the set at base holding tag, or -1.
func (c *Cache) findWay(base int, tag uint32) int {
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == tag {
			return i
		}
	}
	return -1
}

// victim returns the line to replace in the set at base: the first empty
// line, else the least recently used (trivially the only line when
// direct-mapped).
func (c *Cache) victim(base int) int {
	best, bestLRU := base, int64(1)<<62
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == 0 {
			return i
		}
		if c.lru[i] < bestLRU {
			best, bestLRU = i, c.lru[i]
		}
	}
	return best
}

// evict writes back the dirty sub-blocks of a line about to be replaced.
func (c *Cache) evict(i int) {
	if c.cfg.WriteThrough {
		return
	}
	c.Stats.MemWriteWords += int64(bits.OnesCount64(c.dirty[i])) * c.subWords
	c.dirty[i] = 0
}

// Read simulates a read access (instruction fetch or data load) and
// reports whether it missed.
func (c *Cache) Read(addr uint32) bool {
	c.tick++
	c.Stats.Reads++
	base, tag, bit := c.locate(addr)
	i := c.findWay(base, tag)
	if i >= 0 && c.valid[i]&bit != 0 {
		c.lru[i] = c.tick
		return false
	}
	c.readMiss(base, tag, bit, i)
	return true
}

// readMiss fetches sub-block bit of tag's line in the set at base; i is
// the line holding the tag already, or -1 to allocate one.
func (c *Cache) readMiss(base int, tag uint32, bit uint64, i int) {
	c.Stats.ReadMisses++
	i = c.fill(base, tag, i)
	c.valid[i] |= bit
	c.Stats.MemReadWords += c.subWords
	if !c.cfg.NoPrefetch {
		// Wrap-around prefetch: also fetch the next sub-block, wrapping
		// within the block.
		if nxt := c.nextSub(bit); c.valid[i]&nxt == 0 {
			c.valid[i] |= nxt
			c.Stats.MemReadWords += c.subWords
		}
	}
}

// nextSub returns the bit of the sub-block after bit's, wrapping within
// the block.
func (c *Cache) nextSub(bit uint64) uint64 {
	if bit == 1<<c.subMask {
		return 1
	}
	return bit << 1
}

// Write simulates a write access and reports whether it missed.
func (c *Cache) Write(addr uint32) bool {
	c.tick++
	c.Stats.Writes++
	base, tag, bit := c.locate(addr)
	return c.write(base, tag, bit, c.findWay(base, tag))
}

// write applies a write of sub-block bit to tag's line in the set at
// base and reports whether it missed; i is the line holding the tag, or
// -1.
func (c *Cache) write(base int, tag uint32, bit uint64, i int) bool {
	if i >= 0 && c.valid[i]&bit != 0 {
		c.lru[i] = c.tick
		if c.cfg.WriteThrough {
			c.Stats.MemWriteWords += c.subWords
		} else {
			c.dirty[i] |= bit
		}
		return false
	}
	c.Stats.WriteMisses++
	if c.cfg.NoWriteAllocate {
		c.Stats.MemWriteWords += c.subWords
		return true
	}
	i = c.fill(base, tag, i)
	c.valid[i] |= bit
	c.Stats.MemReadWords += c.subWords // no prefetch on write
	if c.cfg.WriteThrough {
		c.Stats.MemWriteWords += c.subWords
	} else {
		c.dirty[i] |= bit
	}
	return true
}

// fill ensures a line for tag exists in the set at base and returns it;
// i is the line holding the tag already, or -1 to allocate.
func (c *Cache) fill(base int, tag uint32, i int) int {
	if i < 0 {
		i = c.victim(base)
		c.evict(i)
		c.tags[i] = tag
		c.valid[i] = 0
	}
	c.lru[i] = c.tick
	return i
}

// Flush invalidates everything (writing back dirty data) — used between
// measurement phases.
func (c *Cache) Flush() {
	for i := range c.tags {
		c.evict(i)
		c.tags[i] = 0
		c.valid[i] = 0
	}
}
