package cache

import (
	"math/rand"
	"testing"
)

// scanTLB is the reference model for TLB: an array of entries with
// per-entry recency stamps, searched by a full associative scan.  The
// victim of a miss is the highest-index invalid entry while any is
// left, then the entry with the oldest stamp.
type scanTLB struct {
	entries   []scanEntry
	pageShift uint
	missLat   uint64
	tick      uint64
	accesses  uint64
	misses    uint64
}

type scanEntry struct {
	vpn   uint32
	lru   uint64
	valid bool
}

func (m *scanTLB) touch(addr uint32) bool {
	m.tick++
	vpn := addr >> m.pageShift
	victim := 0
	for i := range m.entries {
		e := &m.entries[i]
		if e.valid && e.vpn == vpn {
			e.lru = m.tick
			return true
		}
		if v := &m.entries[victim]; !e.valid || (v.valid && e.lru < v.lru) {
			victim = i
		}
	}
	m.entries[victim] = scanEntry{vpn: vpn, lru: m.tick, valid: true}
	return false
}

func (m *scanTLB) access(now uint64, addr uint32) (uint64, bool) {
	m.accesses++
	if m.touch(addr) {
		return now, false
	}
	m.misses++
	return now + m.missLat, true
}

// tlbStream yields the n-th page number of a named access pattern over
// a TLB of the given size.
type tlbStream struct {
	name string
	vpn  func(r *rand.Rand, i, size int) uint32
}

var tlbStreams = []tlbStream{
	{"random", func(r *rand.Rand, i, size int) uint32 {
		return uint32(r.Intn(3 * size))
	}},
	{"local", func(r *rand.Rand, i, size int) uint32 {
		// Mostly the last few pages, with occasional far jumps.
		if r.Intn(8) == 0 {
			return uint32(r.Intn(1 << 20))
		}
		return uint32(i/16 + r.Intn(3))
	}},
	{"strided", func(r *rand.Rand, i, size int) uint32 {
		return uint32((i * 7) % (5 * size))
	}},
	{"thrash", func(r *rand.Rand, i, size int) uint32 {
		// A cyclic sweep one page larger than the TLB: LRU misses on
		// every access once warm.
		return uint32(i % (size + 1))
	}},
	{"colliding", func(r *rand.Rand, i, size int) uint32 {
		// Page numbers that differ only in high bits, so many share
		// low hash bits and probe runs grow long.
		return uint32(r.Intn(2*size)) << 12
	}},
}

// TestTLBMatchesScanModel drives the indexed TLB and the scan model
// through the same mixed Access/Warm streams and requires identical
// hit/miss results, ready cycles, statistics and slot contents.
func TestTLBMatchesScanModel(t *testing.T) {
	const pageBytes, missLat = 4096, 30
	for _, size := range []int{1, 2, 5, 16, 32} {
		for _, st := range tlbStreams {
			r := rand.New(rand.NewSource(int64(size)*131 + int64(len(st.name))))
			tlb := NewTLB(size, pageBytes, missLat)
			ref := &scanTLB{entries: make([]scanEntry, size), pageShift: 12, missLat: missLat}
			for i := 0; i < 20000; i++ {
				addr := st.vpn(r, i, size)<<12 | uint32(r.Intn(pageBytes))
				if r.Intn(5) == 0 {
					tlb.Warm(addr)
					ref.touch(addr)
				} else {
					now := uint64(i) * 3
					ready, miss := tlb.Access(now, addr)
					wantReady, wantMiss := ref.access(now, addr)
					if ready != wantReady || miss != wantMiss {
						t.Fatalf("size %d %s access %d (%#x): got (%d, %v), want (%d, %v)",
							size, st.name, i, addr, ready, miss, wantReady, wantMiss)
					}
				}
				if i%97 == 0 || i < 3*size {
					checkTLBSlots(t, tlb, ref)
				}
			}
			acc, miss := tlb.Stats()
			if acc != ref.accesses || miss != ref.misses {
				t.Fatalf("size %d %s: stats (%d, %d), want (%d, %d)",
					size, st.name, acc, miss, ref.accesses, ref.misses)
			}
		}
	}
}

// checkTLBSlots requires the TLB to hold each page in the slot the scan
// model holds it in, and its recency list to order the slots by the
// model's stamps.
func checkTLBSlots(t *testing.T, tlb *TLB, ref *scanTLB) {
	t.Helper()
	valid := 0
	for i, e := range ref.entries {
		if !e.valid {
			if i >= tlb.unfilled {
				t.Fatalf("slot %d filled, model has it empty", i)
			}
			continue
		}
		valid++
		if i < tlb.unfilled || tlb.slots[i].vpn != e.vpn {
			t.Fatalf("slot %d: model holds vpn %#x, TLB does not", i, e.vpn)
		}
	}
	n := 0
	prev := ^uint64(0)
	for s := tlb.mru; s >= 0; s = tlb.slots[s].next {
		if stamp := ref.entries[s].lru; stamp >= prev {
			t.Fatalf("recency list out of order at slot %d", s)
		} else {
			prev = stamp
		}
		n++
	}
	if n != valid {
		t.Fatalf("recency list holds %d slots, model %d", n, valid)
	}
}
