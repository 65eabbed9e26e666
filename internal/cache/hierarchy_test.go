package cache

import (
	"testing"
	"testing/quick"
)

func defaultHier() *Hierarchy { return New(Defaults()) }

func TestL1HitTiming(t *testing.T) {
	h := defaultHier()
	// Cold miss first.
	r := h.AccessData(100, 0x1000, KLoad)
	if !r.MissL1 {
		t.Fatal("first access must miss")
	}
	// Subsequent access after the fill completes: 1-cycle hit.
	now := r.Done + 10
	r2 := h.AccessData(now, 0x1000, KLoad)
	if r2.MissL1 || r2.Done != now+1 {
		t.Fatalf("expected 1-cycle hit, got %+v (now=%d)", r2, now)
	}
}

func TestL2HitFasterThanMemory(t *testing.T) {
	h := defaultHier()
	// Warm L2 but not L1 for 0x2000: access once (fills both), then
	// evict from L1 by filling its set.
	first := h.AccessData(0, 0x2000, KLoad)
	memLat := first.Done
	// L1D is 64KB 2-way with 32B lines: addresses 32KB apart map to the
	// same set.  Two more fills evict 0x2000 from L1 while L2 keeps it.
	now := first.Done + 1
	for i := 1; i <= 2; i++ {
		r := h.AccessData(now, 0x2000+uint32(i*32<<10), KLoad)
		now = r.Done + 1
	}
	r := h.AccessData(now, 0x2000, KLoad)
	if !r.MissL1 || r.MissL2 {
		t.Fatalf("expected L1 miss / L2 hit, got %+v", r)
	}
	l2Lat := r.Done - now
	if l2Lat >= memLat {
		t.Fatalf("L2 hit (%d cycles) not faster than memory (%d cycles)", l2Lat, memLat)
	}
	if l2Lat < 12 {
		t.Fatalf("L2 hit latency %d below the 12-cycle access time", l2Lat)
	}
}

func TestMemoryLatencyDominatesColdMiss(t *testing.T) {
	h := defaultHier()
	r := h.AccessData(0, 0x3000, KLoad)
	// 12 (L2 lookup) + 70 (memory) + bus transfers; TLB miss adds 30.
	if lat := r.Done; lat < 70 || lat > 200 {
		t.Fatalf("cold miss latency %d outside plausible range", lat)
	}
	if !r.MissL1 || !r.MissL2 || !r.TLBMiss {
		t.Fatalf("cold miss flags wrong: %+v", r)
	}
}

func TestSecondaryMissMerges(t *testing.T) {
	h := defaultHier()
	r1 := h.AccessData(0, 0x4000, KLoad)
	before := h.Stats().MemBytes
	// Same line, one cycle later: must merge onto the in-flight fill.
	r2 := h.AccessData(1, 0x4004, KLoad)
	if h.Stats().MemBytes != before {
		t.Fatal("secondary miss generated new memory traffic")
	}
	if r2.Done > r1.Done {
		t.Fatalf("merged access finishes later (%d) than the fill (%d)", r2.Done, r1.Done)
	}
}

func TestMSHRLimitThrottles(t *testing.T) {
	h := defaultHier()
	// Issue 9 misses to distinct lines in the same cycle: the 9th must
	// wait for an MSHR.
	var dones []uint64
	for i := 0; i < 9; i++ {
		r := h.AccessData(0, uint32(0x10000+i*4096), KLoad)
		dones = append(dones, r.Done)
	}
	max8 := uint64(0)
	for _, d := range dones[:8] {
		if d > max8 {
			max8 = d
		}
	}
	if dones[8] <= max8 {
		t.Fatalf("9th concurrent miss (%d) did not queue behind the 8 MSHRs (max %d)", dones[8], max8)
	}
}

func TestPrefetchBufferFlow(t *testing.T) {
	p := Defaults()
	p.EnablePB = true
	h := New(p)
	// Prefetch a line, wait for it, then demand-load it: PB hit.
	r := h.AccessData(0, 0x5000, KPref)
	if r.Dropped {
		t.Fatal("cold prefetch must not be dropped")
	}
	now := r.Done + 5
	d := h.AccessData(now, 0x5000, KLoad)
	if !d.FromPB || d.Done != now+1 {
		t.Fatalf("expected timely PB hit, got %+v", d)
	}
	if h.Stats().PBHits != 1 || h.Stats().PBFills != 1 {
		t.Fatalf("PB counters wrong: %+v", h.Stats())
	}
	// The line moved into L1: a second demand access is a plain hit.
	d2 := h.AccessData(now+2, 0x5000, KLoad)
	if d2.MissL1 || d2.FromPB {
		t.Fatalf("line not installed into L1: %+v", d2)
	}
}

func TestPrefetchDroppedWhenPresent(t *testing.T) {
	p := Defaults()
	p.EnablePB = true
	h := New(p)
	r := h.AccessData(0, 0x6000, KLoad)
	pr := h.AccessData(r.Done+1, 0x6000, KPref)
	if !pr.Dropped {
		t.Fatal("prefetch of an L1-resident line must be dropped")
	}
}

func TestEarlyDemandWaitsOnInflightPrefetch(t *testing.T) {
	p := Defaults()
	p.EnablePB = true
	h := New(p)
	r := h.AccessData(0, 0x7000, KPref)
	d := h.AccessData(5, 0x7000, KLoad)
	if d.Done != r.Done {
		t.Fatalf("demand on in-flight prefetched line: done=%d, want fill time %d", d.Done, r.Done)
	}
	if h.Stats().PBHits != 1 {
		t.Fatalf("PBHits = %d, want 1", h.Stats().PBHits)
	}
}

// evictTraffic fetches the line at addr with a load, applies touch to
// it (nil leaves it clean), then evicts it by loading two more lines of
// its set, and returns the bytes the sequence moved over the L1<->L2
// bus.
func evictTraffic(addr uint32, touch func(h *Hierarchy, now uint64)) uint64 {
	h := defaultHier()
	now := h.AccessData(0, addr, KLoad).Done + 1
	if touch != nil {
		touch(h, now)
		now++
	}
	for i := 1; i <= 2; i++ {
		now = h.AccessData(now, addr+uint32(i*32<<10), KLoad).Done + 1
	}
	return h.Stats().L1L2Bytes
}

// checkOneWriteback asserts that dirtying the line with touch costs
// exactly one 32-byte L1 line of writeback over leaving it clean.
func checkOneWriteback(t *testing.T, addr uint32, touch func(h *Hierarchy, now uint64)) {
	t.Helper()
	clean, dirty := evictTraffic(addr, nil), evictTraffic(addr, touch)
	if dirty != clean+32 {
		t.Fatalf("dirty eviction moved %d L1<->L2 bytes, clean %d; want clean+32", dirty, clean)
	}
}

func TestWritebackTraffic(t *testing.T) {
	// A store to a resident line dirties it, so its eviction writes it
	// back over the L1<->L2 bus.
	checkOneWriteback(t, 0x8000, func(h *Hierarchy, now uint64) {
		h.AccessData(now, 0x8000, KStore)
	})
}

// TestPerfectDataMode: every data access is a one-cycle hit, and every
// accessor the data side reaches is safe on a hierarchy that builds no
// data side, even with the prefetch buffer requested.
func TestPerfectDataMode(t *testing.T) {
	p := Defaults()
	p.PerfectData = true
	p.EnablePB = true
	h := New(p)
	for i := 0; i < 100; i++ {
		addr := uint32(0x9000 + i*4096)
		for _, kind := range []Kind{KLoad, KStore, KPref, KJPStore} {
			r := h.AccessData(uint64(i), addr, kind)
			if r != (Result{Done: uint64(i) + 1}) {
				t.Fatalf("perfect data access %d kind %d: %+v", i, kind, r)
			}
		}
		h.WarmData(addr, true)
		h.DirtyL1(addr)
		if h.PresentL1(addr) {
			t.Fatalf("perfect data mode reports %#x resident", addr)
		}
	}
	if s := h.Stats(); s != (Stats{}) {
		t.Fatalf("perfect data mode counted %+v", s)
	}
	if s := h.PrefetchStats(); s.Issued != 0 {
		t.Fatalf("perfect data mode tracked %d prefetches", s.Issued)
	}
	if _, miss := h.AccessInst(0, 0x400000); !miss {
		t.Fatal("the instruction side of a perfect data hierarchy missed no cold line")
	}
}

func TestDemandCountersIgnorePrefetchProbes(t *testing.T) {
	p := Defaults()
	p.EnablePB = true
	h := New(p)
	h.AccessData(0, 0xA000, KPref)
	h.AccessData(1, 0xB000, KPref)
	if h.Stats().L1DAccesses != 0 || h.Stats().L1DMisses != 0 {
		t.Fatalf("prefetch probes polluted demand counters: %+v", h.Stats())
	}
}

func TestInstFetch(t *testing.T) {
	h := defaultHier()
	done, miss := h.AccessInst(0, 0x40_0000)
	if !miss || done < 12 {
		t.Fatalf("cold I-fetch: done=%d miss=%v", done, miss)
	}
	done2, miss2 := h.AccessInst(done+1, 0x40_0000)
	if miss2 || done2 != done+2 {
		t.Fatalf("warm I-fetch: done=%d miss=%v", done2, miss2)
	}
}

func TestHitAfterFillProperty(t *testing.T) {
	// Any address, once accessed and completed, hits on re-access.
	h := defaultHier()
	f := func(addr uint32) bool {
		r := h.AccessData(0, addr, KLoad)
		r2 := h.AccessData(r.Done+1, addr, KLoad)
		return !r2.MissL1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBusOccupancy(t *testing.T) {
	b := NewBus(8, 2)
	first, done := b.Transfer(0, 32)
	if first != 2 || done != 8 {
		t.Fatalf("32B over 8B/2c bus: first=%d done=%d, want 2, 8", first, done)
	}
	// Back-to-back transfer queues behind the first.
	first2, done2 := b.Transfer(0, 32)
	if first2 != 10 || done2 != 16 {
		t.Fatalf("second transfer: first=%d done=%d, want 10, 16", first2, done2)
	}
	if b.BytesMoved() != 64 || b.BusyCycles() != 16 {
		t.Fatalf("counters: bytes=%d busy=%d", b.BytesMoved(), b.BusyCycles())
	}
}

func TestTLBMissAndReuse(t *testing.T) {
	tlb := NewTLB(2, 4096, 30)
	ready, miss := tlb.Access(0, 0x1000)
	if !miss || ready != 30 {
		t.Fatalf("cold TLB access: ready=%d miss=%v", ready, miss)
	}
	ready, miss = tlb.Access(31, 0x1FFF) // same page
	if miss || ready != 31 {
		t.Fatalf("same-page access missed: ready=%d miss=%v", ready, miss)
	}
	// Two more pages evict the first (2 entries, LRU).
	tlb.Access(40, 0x2000)
	tlb.Access(50, 0x3000)
	_, miss = tlb.Access(60, 0x1000)
	if !miss {
		t.Fatal("LRU eviction did not occur")
	}
	acc, misses := tlb.Stats()
	if acc != 5 || misses != 4 {
		t.Fatalf("stats: %d accesses, %d misses", acc, misses)
	}
}

func TestCacheLRUWithinSet(t *testing.T) {
	g := Geom{SizeBytes: 128, LineBytes: 32, Assoc: 2, LatCycles: 1} // 2 sets
	c := newCache(g)
	// Three lines in set 0 (addresses 0, 64, 128): LRU evicts the
	// least recently used.
	c.fill(0)
	c.fill(64)
	c.lookup(0) // refresh 0
	c.fill(128) // evicts 64
	if !c.probe(0) || c.probe(64) || !c.probe(128) {
		t.Fatal("LRU eviction picked the wrong victim")
	}
}

func TestVictimAddressReconstruction(t *testing.T) {
	g := Geom{SizeBytes: 128, LineBytes: 32, Assoc: 2, LatCycles: 1}
	c := newCache(g)
	c.fill(0x1000) // set 0
	c.fill(0x2000) // set 0
	victim, _, had := c.fill(0x3000)
	if !had || victim != 0x1000 {
		t.Fatalf("victim = %#x, want 0x1000", victim)
	}
}

func TestGeomSets(t *testing.T) {
	g := Geom{SizeBytes: 64 << 10, LineBytes: 32, Assoc: 2}
	if g.Sets() != 1024 {
		t.Fatalf("Sets = %d", g.Sets())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two set count accepted")
		}
	}()
	newCache(Geom{SizeBytes: 96, LineBytes: 32, Assoc: 1})
}

func TestJPStoreKind(t *testing.T) {
	// A jump-pointer store to a resident line dirties it like a store.
	checkOneWriteback(t, 0xC000, func(h *Hierarchy, now uint64) {
		h.AccessData(now, 0xC000, KJPStore)
	})
}

func TestDirtyL1AndPresentL1(t *testing.T) {
	h := defaultHier()
	if h.PresentL1(0xD000) {
		t.Fatal("cold line reported present")
	}
	h.AccessData(0, 0xD000, KLoad)
	if !h.PresentL1(0xD000) {
		t.Fatal("fetched line not present")
	}
	checkOneWriteback(t, 0xD000, func(h *Hierarchy, _ uint64) {
		h.DirtyL1(0xD000)
	})
}

func TestMemLatencyParameterScales(t *testing.T) {
	fast, slow := Defaults(), Defaults()
	slow.MemLatency = 700
	hf, hs := New(fast), New(slow)
	rf := hf.AccessData(0, 0x1000, KLoad)
	rs := hs.AccessData(0, 0x1000, KLoad)
	if rs.Done < rf.Done+600 {
		t.Fatalf("latency parameter ignored: %d vs %d", rs.Done, rf.Done)
	}
}
