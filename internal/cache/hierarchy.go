package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/stats"
)

// Params configures the memory hierarchy.  Defaults() returns the
// paper's Table 2 machine.
type Params struct {
	L1I Geom
	L1D Geom
	L2  Geom
	// PB is the prefetch buffer geometry (used when EnablePB).
	PB       Geom
	EnablePB bool

	// MemLatency is the main-memory access latency in core cycles.
	MemLatency int
	// ChunkBytes is the width of both buses (8B in Table 2).
	ChunkBytes int
	// L1L2ChunkCycles is core cycles per chunk on the L1<->L2 bus
	// (bus clocked at 1/2 core frequency => 2).
	L1L2ChunkCycles int
	// MemChunkCycles is core cycles per chunk on the memory bus
	// (1/4 core frequency => 4).
	MemChunkCycles int

	// MSHRs is the maximum number of outstanding data misses.
	MSHRs int

	ITLBEntries   int
	DTLBEntries   int
	TLBMissCycles int
	PageBytes     int

	// PerfectData makes all data accesses single-cycle hits.  Used for
	// the paper's compute-time decomposition runs ("uniform single cycle
	// data memory access but with realistic cache bandwidth" — port
	// bandwidth limits live in the core model and remain in effect).
	PerfectData bool
}

// Defaults returns the paper's Table 2 configuration.
func Defaults() Params {
	return Params{
		L1I:             Geom{SizeBytes: 32 << 10, LineBytes: 32, Assoc: 2, LatCycles: 1},
		L1D:             Geom{SizeBytes: 64 << 10, LineBytes: 32, Assoc: 2, LatCycles: 1},
		L2:              Geom{SizeBytes: 512 << 10, LineBytes: 64, Assoc: 4, LatCycles: 12},
		PB:              Geom{SizeBytes: 2 << 10, LineBytes: 32, Assoc: 8, LatCycles: 1},
		MemLatency:      70,
		ChunkBytes:      8,
		L1L2ChunkCycles: 2,
		MemChunkCycles:  4,
		MSHRs:           8,
		ITLBEntries:     16,
		DTLBEntries:     32,
		TLBMissCycles:   30,
		PageBytes:       4096,
	}
}

// Kind classifies a data access.
type Kind uint8

// Data access kinds.
const (
	// KLoad is a demand load.
	KLoad Kind = iota
	// KStore is a demand store.
	KStore
	// KPref is a prefetch request (fills the prefetch buffer).
	KPref
	// KJPStore is a hardware jump-pointer store into allocator padding
	// (traffic attributed to prefetching).
	KJPStore
)

// Result reports the outcome of a data access.
type Result struct {
	// Done is the cycle the data is available (loads / prefetch
	// arrivals) or the access retires from the cache's perspective.
	Done uint64
	// MissL1 is true when the access missed the first-level structures
	// (L1D and prefetch buffer).
	MissL1 bool
	// MissL2 is true when the access also missed the L2.
	MissL2 bool
	// TLBMiss is true when address translation missed the DTLB.
	TLBMiss bool
	// FromPB is true when a demand access was served by the prefetch
	// buffer (a useful prefetch).
	FromPB bool
	// Dropped is true for prefetch requests that found the line already
	// present or already in flight.
	Dropped bool
}

// Stats aggregates hierarchy counters.
type Stats struct {
	L1DAccesses, L1DMisses uint64
	L2Accesses, L2Misses   uint64

	// L1L2Bytes is total traffic on the L1<->L2 bus, writebacks
	// included.
	L1L2Bytes uint64
	MemBytes  uint64

	PBFills uint64
	PBHits  uint64
	// PBHitWaitSum accumulates cycles demand accesses spent waiting for
	// in-flight prefetched lines (0 for fully timely prefetches).
	PBHitWaitSum uint64

	DistinctL1Lines int
}

// Hierarchy is the simulated memory system.
type Hierarchy struct {
	p Params

	l1i *cache
	l1d *cache
	l2  *cache
	pb  *cache

	itlb *TLB
	dtlb *TLB

	l1l2Bus *Bus
	memBus  *Bus

	mshr []uint64 // per-entry next-free cycle

	// inflight records L1-line fills whose data is still on its way
	// (one entry per line; see findInflight).  Tags are installed
	// eagerly at request time; inflight supplies the true data-ready
	// time and merges secondary misses.  The table is open-addressed
	// with linear probing and backward-shift deletion: lookups are a
	// probe of a few slots rather than a scan of every outstanding
	// fill, and completed entries are reclaimed by the probes that
	// step over them.  A slot packs the fill's completion cycle above
	// its line index (line >> lineShift, 32-lineShift bits); 0 is an
	// empty slot.
	inflight      []uint64
	inflightN     int
	inflightShift uint

	// distinct is a two-level bitmap over L1-line indices recording
	// every line demand accesses ever touched (the Table 1 footprint
	// metric).  Leaves allocate lazily, 4 KiB per 1 MiB of touched
	// address space.
	distinct      [][]uint64
	distinctCount int
	lineShift     uint

	// tr follows every prefetch request (KPref from any source) to its
	// outcome; AccessData is the single choke point, so this one
	// tracker sees software, DBP and hardware-JPP prefetches alike.
	tr *stats.Tracker

	s Stats
}

// inflightInitSlots is the inflight table's starting capacity; it
// doubles whenever half full.
const inflightInitSlots = 256

// distinctLeafBits sizes the distinct-line bitmap leaves: each leaf
// covers 2^distinctLeafBits consecutive line indices.
const distinctLeafBits = 15

// New builds a hierarchy.
func New(p Params) *Hierarchy {
	lineShift := uint(0)
	for 1<<lineShift < p.L1D.LineBytes {
		lineShift++
	}
	h := &Hierarchy{
		p:        p,
		l1i:      newCache(p.L1I),
		l1d:      newCache(p.L1D),
		l2:       newCache(p.L2),
		itlb:     NewTLB(p.ITLBEntries, p.PageBytes, p.TLBMissCycles),
		dtlb:     NewTLB(p.DTLBEntries, p.PageBytes, p.TLBMissCycles),
		l1l2Bus:  NewBus(p.ChunkBytes, p.L1L2ChunkCycles),
		memBus:   NewBus(p.ChunkBytes, p.MemChunkCycles),
		mshr:     make([]uint64, p.MSHRs),
		inflight: make([]uint64, inflightInitSlots),
		// 32-bit hash >> shift indexes the table: shift = 32 - log2(slots).
		inflightShift: 32 - uint(bits.Len(uint(inflightInitSlots-1))),
		distinct:      make([][]uint64, 1<<(32-lineShift-distinctLeafBits)),
		lineShift:     lineShift,
		tr:            stats.NewTracker(),
	}
	if p.EnablePB {
		h.pb = newCache(p.PB)
	}
	return h
}

// markDistinct records a demand touch of line for the footprint metric.
func (h *Hierarchy) markDistinct(line uint32) {
	idx := line >> h.lineShift
	leaf := h.distinct[idx>>distinctLeafBits]
	if leaf == nil {
		leaf = make([]uint64, (1<<distinctLeafBits)/64)
		h.distinct[idx>>distinctLeafBits] = leaf
	}
	bit := idx & (1<<distinctLeafBits - 1)
	w := &leaf[bit>>6]
	m := uint64(1) << (bit & 63)
	if *w&m == 0 {
		*w |= m
		h.distinctCount++
	}
}

// inflightHome is line's preferred slot in the inflight table.
func (h *Hierarchy) inflightHome(line uint32) int {
	return int((line * 0x9E3779B1) >> h.inflightShift)
}

// packFill encodes a fill of line completing at done as an inflight
// slot.  It panics if done does not fit above the line index (2^37
// cycles with 32-byte lines) or is 0, which would read as empty.
func (h *Hierarchy) packFill(line uint32, done uint64) uint64 {
	idxBits := 32 - h.lineShift
	if done-1 >= 1<<(64-idxBits)-1 {
		panic(fmt.Sprintf("cache: fill completion cycle %d does not fit the in-flight table", done))
	}
	return done<<idxBits | uint64(line>>h.lineShift)
}

// fillDone is the completion cycle of an occupied inflight slot.
func (h *Hierarchy) fillDone(s uint64) uint64 { return s >> (32 - h.lineShift) }

// fillLine is the line address of an occupied inflight slot: the low
// 32 bits shifted left by lineShift drop the cycle field.
func (h *Hierarchy) fillLine(s uint64) uint32 { return uint32(s) << h.lineShift }

// findInflight returns the table slot of line's in-flight fill, or -1.
// Fills that completed at or before now are reclaimed as the probe
// steps over them, which is unobservable: every consumer compares the
// entry's done time against a deadline >= now, and the original map
// deleted such entries lazily on the same paths.
func (h *Hierarchy) findInflight(now uint64, line uint32) int {
	i := h.inflightHome(line)
	for {
		s := h.inflight[i]
		if s == 0 {
			return -1
		}
		if h.fillDone(s) <= now {
			// Reclaim and re-examine the slot (deletion shifts a
			// later entry into it or empties it).
			h.dropInflight(i)
			continue
		}
		if h.fillLine(s) == line {
			return i
		}
		i = (i + 1) & (len(h.inflight) - 1)
	}
}

// dropInflight removes the entry at slot i, backward-shifting the
// probe chain behind it so every survivor stays reachable.
func (h *Hierarchy) dropInflight(i int) {
	mask := len(h.inflight) - 1
	h.inflight[i] = 0
	h.inflightN--
	j := i
	for {
		j = (j + 1) & mask
		s := h.inflight[j]
		if s == 0 {
			return
		}
		// s can fill the hole iff the hole lies on s's probe path.
		if (j-h.inflightHome(h.fillLine(s)))&mask >= (j-i)&mask {
			h.inflight[i] = s
			h.inflight[j] = 0
			i = j
		}
	}
}

// insertInflight records a new fill of line completing at done,
// replacing any stale entry for the same line (e.g. one outlived by a
// TLB walk — the newer fill is what lookups must see).
func (h *Hierarchy) insertInflight(now uint64, line uint32, done uint64) {
	if 2*h.inflightN >= len(h.inflight) {
		h.growInflight()
	}
	packed := h.packFill(line, done)
	i := h.inflightHome(line)
	for {
		s := h.inflight[i]
		if s == 0 {
			h.inflight[i] = packed
			h.inflightN++
			return
		}
		if h.fillDone(s) <= now {
			h.dropInflight(i)
			continue
		}
		if h.fillLine(s) == line {
			h.inflight[i] = packed
			return
		}
		i = (i + 1) & (len(h.inflight) - 1)
	}
}

// growInflight doubles the table, rehashing the live entries.
func (h *Hierarchy) growInflight() {
	old := h.inflight
	h.inflight = make([]uint64, 2*len(old))
	h.inflightShift--
	mask := len(h.inflight) - 1
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := h.inflightHome(h.fillLine(s))
		for h.inflight[i] != 0 {
			i = (i + 1) & mask
		}
		h.inflight[i] = s
	}
}

// mshrAlloc picks an outstanding-miss slot, returning the earliest
// cycle (>= now) at which the miss may start and the slot index.  The
// caller records the miss completion time into the slot.
func (h *Hierarchy) mshrAlloc(now uint64) (start uint64, slot int) {
	best := 0
	for i, free := range h.mshr {
		if free <= now {
			return now, i
		}
		if free < h.mshr[best] {
			best = i
		}
	}
	return h.mshr[best], best
}

// fetchFromL2 runs the miss path below L1: L2 lookup, possibly memory,
// and the L1-line transfer over the L1<->L2 bus.  It returns the cycle
// the critical word reaches the L1 level and whether L2 missed.
func (h *Hierarchy) fetchFromL2(now uint64, addr uint32) (uint64, bool) {
	h.s.L2Accesses++
	tL2 := now + uint64(h.p.L2.LatCycles)
	l2hit := h.l2.lookup(addr)
	if !l2hit {
		h.s.L2Misses++
		tMem := tL2 + uint64(h.p.MemLatency)
		firstM, doneM := h.memBus.Transfer(tMem, h.p.L2.LineBytes)
		h.s.MemBytes += uint64(h.p.L2.LineBytes)
		if victim, dirty, ok := h.l2.fill(addr); ok && dirty {
			// L2 writeback to memory: occupies the memory bus only.
			h.memBus.Transfer(doneM, h.p.L2.LineBytes)
			h.s.MemBytes += uint64(h.p.L2.LineBytes)
			_ = victim
		}
		tL2 = firstM
	}
	first, _ := h.l1l2Bus.Transfer(tL2, h.p.L1D.LineBytes)
	h.s.L1L2Bytes += uint64(h.p.L1D.LineBytes)
	return first, !l2hit
}

// writebackL1 charges an L1 victim writeback to the L1<->L2 bus and
// marks the line dirty in L2.
func (h *Hierarchy) writebackL1(now uint64, victim uint32) {
	h.l1l2Bus.Transfer(now, h.p.L1D.LineBytes)
	h.s.L1L2Bytes += uint64(h.p.L1D.LineBytes)
	if h.l2.probe(victim) {
		h.l2.setDirty(victim)
	}
	// If the victim is not in L2 (inclusive-victim simplification), the
	// writeback allocates it there silently.
}

// AccessData performs a data-side access at cycle now.
func (h *Hierarchy) AccessData(now uint64, addr uint32, kind Kind) Result {
	if h.p.PerfectData {
		return Result{Done: now + 1}
	}
	line := h.l1d.lineAddr(addr)
	demand := kind == KLoad || kind == KStore
	if demand {
		h.markDistinct(line)
	}
	fill := h.findInflight(now, line)

	var res Result
	ready, tlbMiss := h.dtlb.Access(now, addr)
	res.TLBMiss = tlbMiss
	now = ready

	// L1D probe.
	l1hit := h.l1d.lookup(addr)
	if demand {
		h.s.L1DAccesses++
		if !l1hit {
			h.s.L1DMisses++
		}
	}
	if l1hit {
		done := now + uint64(h.p.L1D.LatCycles)
		if fill >= 0 {
			if d := h.fillDone(h.inflight[fill]); d > done {
				done = d
			} else {
				h.dropInflight(fill)
			}
		}
		if kind == KStore || kind == KJPStore {
			h.l1d.setDirty(addr)
		}
		if kind == KPref {
			h.tr.PrefetchIssued(line, done, true)
			return Result{Done: done, Dropped: true}
		}
		if demand {
			// A resident line may still carry an unconsumed prefetch
			// (direct L1 fills when the PB is disabled); first touch
			// consumes it.
			h.tr.Demand(line, now, false)
		}
		res.Done = done
		return res
	}

	// Prefetch buffer probe.
	if h.pb != nil && h.pb.lookup(addr) {
		done := now + uint64(h.p.PB.LatCycles)
		if fill >= 0 {
			if d := h.fillDone(h.inflight[fill]); d > done {
				done = d
			} else {
				h.dropInflight(fill)
			}
		}
		if kind == KPref {
			h.tr.PrefetchIssued(line, done, true)
			return Result{Done: done, Dropped: true}
		}
		// A used prefetch: install into the L1 and retire the PB copy.
		h.s.PBHits++
		h.s.PBHitWaitSum += done - (now + 1)
		h.tr.Demand(line, now, false)
		h.pb.invalidate(addr)
		if victim, dirty, ok := h.l1d.fill(addr); ok {
			h.tr.Evicted(h.l1d.lineAddr(victim))
			if dirty {
				h.writebackL1(done, victim)
			}
		}
		if kind == KStore || kind == KJPStore {
			h.l1d.setDirty(addr)
		}
		res.Done = done
		res.FromPB = true
		return res
	}

	res.MissL1 = true

	// Merge with an in-flight fill of the same line.
	if fill >= 0 {
		if d := h.fillDone(h.inflight[fill]); d > now {
			if kind == KPref {
				h.tr.PrefetchIssued(line, d, true)
				return Result{Done: d, MissL1: true, Dropped: true}
			}
			// The line is being filled (into L1 or PB); tags were
			// installed eagerly, but a second structure may need the line
			// too.  Keep it simple: the requester just waits for the fill.
			if demand {
				h.tr.Demand(line, now, true)
			}
			res.Done = d
			return res
		}
	}

	// True miss: allocate an MSHR and go below.
	start, slot := h.mshrAlloc(now)
	first, l2miss := h.fetchFromL2(start, addr)
	res.MissL2 = l2miss
	h.mshr[slot] = first

	if kind == KPref {
		h.s.PBFills++
		if h.pb != nil {
			if victim, _, ok := h.pb.fill(addr); ok {
				h.tr.Evicted(h.l1d.lineAddr(victim))
			}
		} else {
			if victim, dirty, ok := h.l1d.fill(addr); ok {
				h.tr.Evicted(h.l1d.lineAddr(victim))
				if dirty {
					h.writebackL1(first, victim)
				}
			}
		}
		h.tr.PrefetchIssued(line, first, false)
	} else {
		if victim, dirty, ok := h.l1d.fill(addr); ok {
			h.tr.Evicted(h.l1d.lineAddr(victim))
			if dirty {
				h.writebackL1(first, victim)
			}
		}
		if kind == KStore || kind == KJPStore {
			h.l1d.setDirty(addr)
		}
		if demand {
			h.tr.Demand(line, now, true)
		}
	}
	h.insertInflight(now, line, first)
	res.Done = first
	return res
}

// WarmData functionally warms the hierarchy for one fast-forwarded
// demand access (sampled simulation): TLB, L1D, prefetch buffer and L2
// tag/replacement/dirty state evolve exactly as a demand access would
// drive them, but no latency is computed and no bus, MSHR, counter or
// prefetch-tracker state is touched — the measured intervals stay the
// sole source of timing statistics.  The footprint bitmap is updated:
// distinct-lines-touched is an architectural property of the executed
// stream, fast-forwarded or not.
func (h *Hierarchy) WarmData(addr uint32, store bool) {
	if h.p.PerfectData {
		return
	}
	h.markDistinct(h.l1d.lineAddr(addr))
	h.dtlb.Warm(addr)
	if h.l1d.lookup(addr) {
		if store {
			h.l1d.setDirty(addr)
		}
		return
	}
	if h.pb != nil && h.pb.lookup(addr) {
		// A demand touch consumes the prefetched copy: install into L1,
		// retire the PB line (the demand path's PB-hit transfer).
		h.pb.invalidate(addr)
		h.warmFillL1(addr, store)
		return
	}
	if !h.l2.lookup(addr) {
		h.l2.fill(addr)
	}
	h.warmFillL1(addr, store)
}

// warmFillL1 installs addr into the L1D during warming, preserving the
// functional side of a victim writeback (L2 dirty marking) without the
// bus charge.
func (h *Hierarchy) warmFillL1(addr uint32, store bool) {
	if victim, dirty, ok := h.l1d.fill(addr); ok && dirty {
		if h.l2.probe(victim) {
			h.l2.setDirty(victim)
		}
	}
	if store {
		h.l1d.setDirty(addr)
	}
}

// WarmInst warms the instruction side for one fast-forwarded fetch.
func (h *Hierarchy) WarmInst(pc uint32) {
	h.itlb.Warm(pc)
	if h.l1i.lookup(pc) {
		return
	}
	if !h.l2.lookup(pc) {
		h.l2.fill(pc)
	}
	h.l1i.fill(pc)
}

// PresentL1 reports whether addr's line is resident in the L1 data
// cache or the prefetch buffer, without disturbing replacement state.
// The hardware JPP engine uses it to make jump-pointer stores
// best-effort: a store to a non-resident home would otherwise fetch and
// dirty a whole line just to plant a hint.
func (h *Hierarchy) PresentL1(addr uint32) bool {
	if h.l1d.probe(addr) {
		return true
	}
	return h.pb != nil && h.pb.probe(addr)
}

// DirtyL1 marks addr's line dirty if it is L1-resident.  Hardware
// jump-pointer stores merge into the home node's already-fetched block
// (the annotated-load mechanism of section 3.3 computes the padding
// address as part of the triggering load), so their only memory-system
// cost is the eventual writeback of the dirtied line.
func (h *Hierarchy) DirtyL1(addr uint32) {
	h.l1d.setDirty(addr)
}

// AccessInst fetches the instruction block containing pc at cycle now,
// returning the cycle the block is available and whether L1I missed.
func (h *Hierarchy) AccessInst(now uint64, pc uint32) (uint64, bool) {
	ready, _ := h.itlb.Access(now, pc)
	now = ready
	if h.l1i.lookup(pc) {
		return now + uint64(h.p.L1I.LatCycles), false
	}
	first, _ := h.fetchFromL2(now, pc)
	h.l1i.fill(pc)
	return first, true
}

// LineBytes returns the L1 data line size.
func (h *Hierarchy) LineBytes() int { return h.p.L1D.LineBytes }

// PrefetchStats finalizes the prefetch-outcome tracker (retiring any
// still-pending prefetches as evicted-unused) and returns its counters.
// Call at end of run; the outcome identity OutcomeTotal()==Issued holds
// from then on.
func (h *Hierarchy) PrefetchStats() stats.PrefetchStats {
	h.tr.Finalize()
	return h.tr.Stats()
}

// Stats returns a snapshot of the hierarchy counters.
func (h *Hierarchy) Stats() Stats {
	s := h.s
	s.DistinctL1Lines = h.distinctCount
	return s
}
