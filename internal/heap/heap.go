// Package heap implements the simulated program heap.
//
// The allocator reproduces the behaviour the paper depends on for
// jump-pointer storage: small objects are allocated in size classes that
// are strictly powers of two (GNU-C-library style), so any object whose
// payload is not an exact power of two carries padding at the end of its
// block.  Both the software prefetching idioms and the hardware JPP
// mechanism store jump-pointers in that padding, adding no distinct cache
// blocks to the program's footprint (paper §3.1, §3.3).
package heap

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"sort"

	"repro/internal/mem"
)

// Base is the first heap address.  It is nonzero so that address 0 can
// serve as the null pointer, and high enough to keep the (unmodelled)
// static data area distinct.
const Base mem.Addr = 0x1000_0000

// MinClass is the smallest allocation size class in bytes.  Two words:
// one payload word plus room for at least one jump-pointer in blocks
// whose payload is a single word.
const MinClass = 8

// ArenaID names an allocation arena.  Arena 0 is the default heap; the
// Olden benchmarks allocate per locality domain (the suite was written
// for distributed memory machines), which workloads reproduce by
// creating one arena per domain.  Arenas keep a structure's blocks
// page-dense even as churn scrambles their order.
type ArenaID int

// arenaChunk is how much address space an arena claims from the global
// region at a time.  Chunks are carved back to back (aligned only to
// the largest class they contain), so arena locality never skews cache
// set usage.
const arenaChunk = 2 << 10

// An Allocator carves blocks out of the simulated memory image.  It is a
// bump allocator over power-of-two size classes with per-class free
// lists; frees recycle blocks within their class and arena, mirroring
// the reuse behaviour of the dlmalloc-family allocators the paper
// assumes.
type Allocator struct {
	img    *mem.Image
	next   mem.Addr
	limit  mem.Addr
	arenas []*arena

	// meta records the class and payload of every live block so
	// PaddingAddr and Free can validate their arguments.  It is a paged
	// array of 2-byte blockMeta slots indexed by heap offset in MinClass
	// granules (every block start is class-aligned, hence
	// granule-aligned): a metadata probe is two indexed loads instead
	// of a map probe, which matters because the prefetch engines
	// interrogate block geometry on every chase.  Pages materialize as
	// the bump pointer advances, so the table's size tracks the heap
	// actually used, not the address space.
	meta []*metaPage

	// bigSlack holds the slack of the blocks whose slot reads slackBig,
	// keyed by block address (only blocks of 4 KiB and up can need it).
	bigSlack map[mem.Addr]uint32

	// chunks lists every chunk an arena has claimed, in ascending
	// address order (chunks come from the global bump pointer, which
	// only grows).  A block belongs to the last chunk starting at or
	// below it, so Free finds the block's arena without the slot
	// storing it.
	chunks []chunk

	// Stats.
	allocs     int
	frees      int
	liveBytes  int
	totalBytes int
}

// metaPageSlots is the number of block-metadata slots per page; one
// page covers metaPageSlots*MinClass = 64 KiB of heap address space.
const metaPageSlots = 1 << 13

type metaPage [metaPageSlots]blockMeta

type arena struct {
	next mem.Addr
	end  mem.Addr
	// free holds per-class free lists, indexed by log2(class); classes
	// are powers of two, so the index is exact.
	free [32][]mem.Addr
}

// chunk records that arena claimed the address space from start to the
// next chunk's start.
type chunk struct {
	start mem.Addr
	arena ArenaID
}

// blockMeta is one granule's 2-byte metadata slot: log2 of the block's
// class in the low classBits bits and the slack class−payload above
// them.  Every class is at least MinClass, so a live block's slot is
// nonzero and 0 = no block.  A slack of slackBig or more is stored as
// slackBig and kept in Allocator.bigSlack; the field holds every slack
// below that, which covers every payload of every class up to 4 KiB
// save the 2049-byte one.
type blockMeta uint16

const (
	classBits = 5
	slackBig  = 1<<(16-classBits) - 1
)

// classIdx is log2 of the block size, the arena free-list index.
func (m blockMeta) classIdx() uint32 { return uint32(m) & (1<<classBits - 1) }

// class is the block size in bytes (a power of two).
func (m blockMeta) class() uint32 { return 1 << m.classIdx() }

// slackField is the slot's slack, or slackBig if bigSlack holds it.
func (m blockMeta) slackField() uint32 { return uint32(m) >> classBits }

// New returns an allocator that places blocks into img starting at Base.
func New(img *mem.Image) *Allocator {
	return &Allocator{
		img:    img,
		next:   Base,
		limit:  0xF000_0000,
		arenas: []*arena{{}},
	}
}

// NewArena creates an allocation arena (a locality domain).
func (a *Allocator) NewArena() ArenaID {
	a.arenas = append(a.arenas, &arena{})
	return ArenaID(len(a.arenas) - 1)
}

// info returns the metadata of the live block starting at addr, or 0
// if addr is not a live block start.
func (a *Allocator) info(addr mem.Addr) blockMeta {
	if addr < Base || addr&(MinClass-1) != 0 {
		return 0
	}
	slot := (addr - Base) / MinClass
	pi := int(slot / metaPageSlots)
	if pi >= len(a.meta) || a.meta[pi] == nil {
		return 0
	}
	return a.meta[pi][slot%metaPageSlots]
}

// metaSlot returns addr's metadata slot, materializing its page.
func (a *Allocator) metaSlot(addr mem.Addr) *blockMeta {
	slot := (addr - Base) / MinClass
	pi := int(slot / metaPageSlots)
	for pi >= len(a.meta) {
		a.meta = append(a.meta, nil)
	}
	if a.meta[pi] == nil {
		a.meta[pi] = new(metaPage)
	}
	return &a.meta[pi][slot%metaPageSlots]
}

// slack returns class−payload of the live block at addr whose slot is m.
func (a *Allocator) slack(addr mem.Addr, m blockMeta) uint32 {
	if s := m.slackField(); s != slackBig {
		return s
	}
	return a.bigSlack[addr]
}

// setMeta records a live block of class and payload bytes at addr.
func (a *Allocator) setMeta(addr mem.Addr, class, payload uint32) {
	slack := class - payload
	if slack >= slackBig {
		if a.bigSlack == nil {
			a.bigSlack = map[mem.Addr]uint32{}
		}
		a.bigSlack[addr] = slack
		slack = slackBig
	}
	*a.metaSlot(addr) = blockMeta(slack<<classBits | uint32(bits.Len32(class)-1))
}

// arenaOf returns the arena whose chunk holds addr.
func (a *Allocator) arenaOf(addr mem.Addr) ArenaID {
	i := sort.Search(len(a.chunks), func(i int) bool { return a.chunks[i].start > addr })
	return a.chunks[i-1].arena
}

// SizeClass returns the power-of-two block size used for a payload of n
// bytes.  It panics for n above 1<<31, which no 32-bit class holds.
func SizeClass(n uint32) uint32 {
	if n < MinClass {
		return MinClass
	}
	if n > 1<<31 {
		panic(fmt.Sprintf("heap: payload of %d bytes exceeds the largest size class", n))
	}
	c := uint32(MinClass)
	for c < n {
		c <<= 1
	}
	return c
}

// Alloc allocates a block for n payload bytes in the default arena.
func (a *Allocator) Alloc(n uint32) mem.Addr { return a.AllocIn(0, n) }

// AllocIn allocates a block for n payload bytes in the given arena and
// returns its address.  The block's contents are zeroed (freed blocks
// are recycled, so stale words must not leak into "fresh" allocations).
func (a *Allocator) AllocIn(id ArenaID, n uint32) mem.Addr {
	if n == 0 {
		n = 1
	}
	ar := a.arenas[id]
	class := SizeClass(n)
	cidx := bits.Len32(class) - 1
	var addr mem.Addr
	if fl := ar.free[cidx]; len(fl) > 0 {
		addr = fl[len(fl)-1]
		ar.free[cidx] = fl[:len(fl)-1]
	} else {
		// Align the bump pointer to the class size so blocks never
		// straddle larger power-of-two boundaries gratuitously.
		mask := mem.Addr(class - 1)
		ar.next = (ar.next + mask) &^ mask
		if ar.next+mem.Addr(class) > ar.end {
			// Claim a fresh chunk from the global region, sized to fit
			// at least one block of this class.
			size := mem.Addr(arenaChunk)
			if mem.Addr(class) > size {
				size = mem.Addr(class)
			}
			a.next = (a.next + mask) &^ mask
			ar.next = a.next
			a.chunks = append(a.chunks, chunk{start: a.next, arena: id})
			ar.end = a.next + size
			a.next = ar.end
			if a.next > a.limit {
				panic(fmt.Sprintf("heap: out of simulated memory (next=%#x)", a.next))
			}
		}
		addr = ar.next
		ar.next += mem.Addr(class)
		a.totalBytes += int(class)
	}
	for off := uint32(0); off < class; off += mem.WordBytes {
		a.img.WriteWord(addr+mem.Addr(off), 0)
	}
	a.setMeta(addr, class, n)
	a.allocs++
	a.liveBytes += int(class)
	return addr
}

// Free returns the block at addr to its arena's size-class free list.
func (a *Allocator) Free(addr mem.Addr) {
	m := a.info(addr)
	if m == 0 {
		panic(fmt.Sprintf("heap: free of unallocated address %#x", addr))
	}
	ar := a.arenas[a.arenaOf(addr)]
	cidx := m.classIdx()
	ar.free[cidx] = append(ar.free[cidx], addr)
	a.frees++
	a.liveBytes -= int(m.class())
	if m.slackField() == slackBig {
		delete(a.bigSlack, addr)
	}
	*a.metaSlot(addr) = 0
}

// BlockSize returns the block (class) size in bytes of the live block at
// addr, or 0 if addr is not a live block start.
func (a *Allocator) BlockSize(addr mem.Addr) uint32 {
	if m := a.info(addr); m != 0 {
		return m.class()
	}
	return 0
}

// PayloadSize returns the requested payload size of the live block at
// addr, or 0 if addr is not a live block start.
func (a *Allocator) PayloadSize(addr mem.Addr) uint32 {
	if m := a.info(addr); m != 0 {
		return m.class() - a.slack(addr, m)
	}
	return 0
}

// PaddingWords reports how many whole words of padding the block at addr
// carries after its payload.  Zero means the payload exactly fills the
// block and no jump-pointer storage is available (paper §3.3: "if the
// size is exactly a power of two ... the unvaried load is used").
func (a *Allocator) PaddingWords(addr mem.Addr) uint32 {
	if m := a.info(addr); m != 0 {
		// The class is a whole number of words, so the whole words
		// after the payload are the whole words in the slack.
		return a.slack(addr, m) / mem.WordBytes
	}
	return 0
}

// PaddingAddr returns the address of the last word of the block at addr
// — the canonical jump-pointer slot — and whether such padding exists.
// The hardware mechanism derives this address from the annotated load's
// size variant; we derive it from the allocator's records, which encodes
// the same information.
func (a *Allocator) PaddingAddr(addr mem.Addr) (mem.Addr, bool) {
	// Padding exists iff the slack holds a whole word; a slot reading
	// slackBig stands for a slack larger still.
	m := a.info(addr)
	if m == 0 || m.slackField() < mem.WordBytes {
		return 0, false
	}
	return addr + mem.Addr(m.class()) - mem.WordBytes, true
}

// PaddingAddrForBlock computes the jump-pointer slot for a block of the
// given class size without consulting liveness records.  The hardware
// JPP engine uses this when it only knows the home node address and the
// load's size annotation.
func PaddingAddrForBlock(addr mem.Addr, class uint32) mem.Addr {
	return addr + mem.Addr(class) - mem.WordBytes
}

// Contains reports whether addr falls inside the allocated heap range.
// Prefetch engines use it to discard garbage "pointers".
func (a *Allocator) Contains(addr mem.Addr) bool {
	return addr >= Base && addr < a.next
}

// Allocs and Frees report allocation event counts.
func (a *Allocator) Allocs() int { return a.allocs }

// Frees reports how many blocks have been freed.
func (a *Allocator) Frees() int { return a.frees }

// LiveBytes reports bytes in live blocks (by class size).
func (a *Allocator) LiveBytes() int { return a.liveBytes }

// TotalBytes reports bytes ever carved from the bump region.
func (a *Allocator) TotalBytes() int { return a.totalBytes }

// Image returns the backing memory image.
func (a *Allocator) Image() *mem.Image { return a.img }

// PayloadChecksum hashes the architectural state of the heap: the
// address and payload words of every live block, in address order.
// Block padding is deliberately excluded — the prefetching schemes
// plant jump pointers there (that is the paper's point), so padding is
// microarchitectural hint storage, not program state.  Two runs of the
// same workload must produce identical checksums regardless of
// prefetching scheme; the differential tests rely on this.
func (a *Allocator) PayloadChecksum() uint64 {
	h := fnv.New64a()
	var buf [4]byte
	word := func(w uint32) {
		buf[0] = byte(w)
		buf[1] = byte(w >> 8)
		buf[2] = byte(w >> 16)
		buf[3] = byte(w >> 24)
		h.Write(buf[:])
	}
	// The paged metadata table is ordered by address, so walking it in
	// page/slot order visits live blocks in ascending address order —
	// the same order the map-based implementation achieved by sorting.
	for pi, pg := range a.meta {
		if pg == nil {
			continue
		}
		for si, m := range pg {
			if m == 0 {
				continue
			}
			addr := Base + mem.Addr(pi*metaPageSlots+si)*MinClass
			payload := m.class() - a.slack(addr, m)
			word(uint32(addr))
			word(payload)
			payloadWords := (payload + mem.WordBytes - 1) / mem.WordBytes
			for off := uint32(0); off < payloadWords; off++ {
				word(a.img.ReadWord(addr + mem.Addr(off*mem.WordBytes)))
			}
		}
	}
	return h.Sum64()
}
