package cache

import "repro/internal/isa"

// A buffered reference packs one access into 32 bits: the address, the
// number of repeats that follow it back to back, and a write flag.
const (
	refAddrBits = 21 // every simulated address is below isa.MemSize
	refAddrMask = 1<<refAddrBits - 1
	refRepShift = refAddrBits
	refRepMask  = 1<<(31-refAddrBits) - 1 // most repeats one reference can carry
	refWrite    = 1 << 31

	// bankChunk is the number of references a Bank buffers per stream
	// before replaying them.
	bankChunk = 1 << 12
)

// Simulated memory must fit the reference address field.
const _ = uint32(1<<refAddrBits - isa.MemSize)

// Bank drives several split I/D cache systems from one execution as a
// single observer (sim.MemObserver). Instead of probing every cache on
// every reference, it buffers the instruction-side and data-side
// reference streams in fixed chunks and replays each chunk into each
// system in turn, so one cache's arrays stay hot for a whole chunk. The
// I and D caches of a system are independent, so splitting the streams
// keeps each cache's access order exactly.
//
// The instruction side carries fetches and text-segment loads (D16 ldc
// literal-pool reads); consecutive references to one of the bank's
// smallest sub-blocks are stored once with a repeat count, since after
// the first they hit in every cache: no other instruction-side access
// comes between them. The data side carries data-segment loads and all
// stores.
//
// The systems' statistics are complete only after Drain.
type Bank struct {
	systems []*System
	iref    []uint32 // instruction-side chunk
	dref    []uint32 // data-side chunk
	iReads  int64    // reads in iref, repeats included
	dReads  int64    // reads in dref
	subOff  uint32   // offset bits within the smallest I-side sub-block
}

// NewBank returns a bank driving the given systems.
func NewBank(systems []*System) *Bank {
	sub := uint32(1) << 31
	for _, s := range systems {
		sub = min(sub, s.I.cfg.SubBytes)
	}
	return &Bank{
		systems: systems,
		iref:    make([]uint32, 0, bankChunk),
		dref:    make([]uint32, 0, bankChunk),
		subOff:  sub - 1,
	}
}

// Exec implements sim.Observer: every executed instruction reads the
// instruction cache at its own address. Because validity is per
// sub-block, two 16-bit instructions in one word cost one fill, which is
// exactly the D16 density advantage the paper measures.
func (b *Bank) Exec(pc uint32, _ isa.Instr) { b.fetch(pc) }

// Load implements sim.MemObserver. Text-segment reads (D16 ldc
// literal-pool loads) go through the instruction cache: literals sit
// adjacent to the code that references them and are fetched on the
// instruction side, so they share the I-stream's locality instead of
// polluting the data cache.
func (b *Bank) Load(addr uint32, _ uint32) {
	if addr < isa.DataBase {
		b.fetch(addr)
		return
	}
	b.dReads++
	b.data(addr)
}

// Store implements sim.MemObserver.
func (b *Bank) Store(addr uint32, _ uint32) { b.data(addr | refWrite) }

func (b *Bank) fetch(addr uint32) {
	b.iReads++
	ref := addr &^ b.subOff
	if n := len(b.iref); n > 0 {
		if last := b.iref[n-1]; last&refAddrMask == ref && last>>refRepShift < refRepMask {
			b.iref[n-1] = last + 1<<refRepShift
			return
		}
		if n == bankChunk {
			b.replayI()
		}
	}
	b.iref = append(b.iref, ref)
}

func (b *Bank) data(ref uint32) {
	if len(b.dref) == bankChunk {
		b.replayD()
	}
	b.dref = append(b.dref, ref)
}

func (b *Bank) replayI() {
	for _, s := range b.systems {
		s.I.replay(b.iref, b.iReads)
	}
	b.iref, b.iReads = b.iref[:0], 0
}

func (b *Bank) replayD() {
	for _, s := range b.systems {
		s.D.replay(b.dref, b.dReads)
	}
	b.dref, b.dReads = b.dref[:0], 0
}

// Drain replays the buffered partial chunks. Call it when the run ends,
// before reading any system's statistics.
func (b *Bank) Drain() {
	b.replayI()
	b.replayD()
}

// replay applies a chunk of buffered references with exactly the effect
// of the corresponding Read and Write calls; reads is the chunk's read
// count, repeats included. Direct-mapped caches take a batch path whose
// hits touch nothing but the two arrays they test, and which never
// advances lru: a one-way set never consults it.
func (c *Cache) replay(refs []uint32, reads int64) {
	if c.assoc != 1 {
		for _, r := range refs {
			addr := r & refAddrMask
			if r&refWrite != 0 {
				c.Write(addr)
				continue
			}
			c.Read(addr)
			if n := int64(r >> refRepShift & refRepMask); n > 0 {
				// Repeats are hits that only advance the line's LRU tick.
				c.tick += n
				c.Stats.Reads += n
				base, tag, _ := c.locate(addr)
				c.lru[c.findWay(base, tag)] = c.tick
			}
		}
		return
	}
	c.Stats.Reads += reads
	tags, valid := c.tags, c.valid
	// Masking the shift counts to the operand width lets the compiler
	// drop its handling of oversized shifts from the loop.
	blockShift, setMask := c.blockShift&31, c.setMask
	subShift, subMask := c.subShift&31, c.subMask&63
	for _, r := range refs {
		addr := r & refAddrMask
		block := addr >> blockShift
		set := int(block & setMask)
		tag := block | lineUsed
		bit := uint64(1) << (addr >> subShift & subMask)
		way := -1
		if tags[set] == tag {
			if r&refWrite == 0 && valid[set]&bit != 0 {
				continue
			}
			way = set
		}
		if r&refWrite != 0 {
			c.Stats.Writes++
			c.write(set, tag, bit, way)
		} else {
			c.readMiss(set, tag, bit, way)
		}
	}
}
