package cache

// TLB is a fully-associative, LRU translation lookaside buffer with
// 30-cycle hardware miss handling (Table 2).  As in SimpleScalar, a
// miss adds the handling latency to the faulting access; concurrent
// misses overlap (the hardware walker is pipelined).
//
// The entries form a recency list (mru ... lru, linked by slot index)
// and an open-addressed vpn -> slot index finds a page without scanning
// the array.  Empty slots fill from the highest index down; once every
// slot is valid, a miss evicts the least-recently-used translation.
type TLB struct {
	slots     []tlbSlot
	index     []int32 // linear-probed; slot+1, 0 marks an empty bucket
	indexMask uint32
	hashShift uint
	mru, lru  int32 // recency-list ends; -1 while the TLB is empty
	unfilled  int   // slots [0, unfilled) have never held a translation

	pageShift uint
	missLat   uint64

	accesses uint64
	misses   uint64
}

type tlbSlot struct {
	vpn        uint32
	prev, next int32 // towards the mru / lru end; -1 at the ends
}

// NewTLB returns a TLB with n entries over pages of pageBytes.
func NewTLB(n int, pageBytes int, missLat int) *TLB {
	shift := uint(0)
	for 1<<shift < pageBytes {
		shift++
	}
	// At most a quarter of the buckets are ever occupied, which keeps
	// probe runs short.
	bits := uint(2)
	for 1<<bits < 4*n {
		bits++
	}
	buckets := 1 << bits
	return &TLB{
		slots:     make([]tlbSlot, n),
		index:     make([]int32, buckets),
		indexMask: uint32(buckets - 1),
		hashShift: 32 - bits,
		mru:       -1,
		lru:       -1,
		unfilled:  n,
		pageShift: shift,
		missLat:   uint64(missLat),
	}
}

// home is vpn's first probe bucket (Fibonacci hashing).
func (t *TLB) home(vpn uint32) uint32 {
	return vpn * 2654435761 >> t.hashShift
}

// Access translates addr at cycle now.  It returns the cycle at which
// the translation is available (now for a hit) and whether it missed.
// On a miss the handler is reserved and the missing page installed.
// A hit on the most recently used page needs no list update.
func (t *TLB) Access(now uint64, addr uint32) (ready uint64, miss bool) {
	t.accesses++
	vpn := addr >> t.pageShift
	if t.mru >= 0 && t.slots[t.mru].vpn == vpn {
		return now, false
	}
	if t.touch(vpn) {
		return now, false
	}
	t.misses++
	return now + t.missLat, true
}

// Warm installs addr's translation and refreshes its recency exactly
// like Access, but charges no latency and leaves the access/miss
// counters untouched.  Sampled simulation uses it to keep TLB contents
// hot across functionally fast-forwarded spans without polluting the
// measured-interval statistics.
func (t *TLB) Warm(addr uint32) {
	t.touch(addr >> t.pageShift)
}

// touch makes vpn the most recently used translation, installing it
// over the victim slot if it is absent.  It reports whether vpn hit.
func (t *TLB) touch(vpn uint32) bool {
	b := t.home(vpn)
	for {
		s := t.index[b]
		if s == 0 {
			break
		}
		if t.slots[s-1].vpn == vpn {
			t.moveToFront(s - 1)
			return true
		}
		b = (b + 1) & t.indexMask
	}
	var victim int32
	if t.unfilled > 0 {
		t.unfilled--
		victim = int32(t.unfilled)
	} else {
		victim = t.lru
		t.unindex(t.slots[victim].vpn)
		t.unlink(victim)
	}
	// The eviction may have shifted vpn's probe run; probe afresh.
	b = t.home(vpn)
	for t.index[b] != 0 {
		b = (b + 1) & t.indexMask
	}
	t.index[b] = victim + 1
	t.slots[victim].vpn = vpn
	t.pushFront(victim)
	return false
}

// unindex removes vpn's bucket, shifting later members of its probe
// run back so every lookup still ends at the first empty bucket.
func (t *TLB) unindex(vpn uint32) {
	b := t.home(vpn)
	for t.slots[t.index[b]-1].vpn != vpn {
		b = (b + 1) & t.indexMask
	}
	hole := b
	for {
		b = (b + 1) & t.indexMask
		s := t.index[b]
		if s == 0 {
			break
		}
		// The entry at b may fill the hole unless its home lies
		// cyclically in (hole, b].
		if (b-t.home(t.slots[s-1].vpn))&t.indexMask >= (b-hole)&t.indexMask {
			t.index[hole] = s
			hole = b
		}
	}
	t.index[hole] = 0
}

func (t *TLB) moveToFront(s int32) {
	if s != t.mru {
		t.unlink(s)
		t.pushFront(s)
	}
}

func (t *TLB) unlink(s int32) {
	e := &t.slots[s]
	if e.prev >= 0 {
		t.slots[e.prev].next = e.next
	} else {
		t.mru = e.next
	}
	if e.next >= 0 {
		t.slots[e.next].prev = e.prev
	} else {
		t.lru = e.prev
	}
}

func (t *TLB) pushFront(s int32) {
	e := &t.slots[s]
	e.prev, e.next = -1, t.mru
	if t.mru >= 0 {
		t.slots[t.mru].prev = s
	} else {
		t.lru = s
	}
	t.mru = s
}

// Stats reports accesses and misses.
func (t *TLB) Stats() (accesses, misses uint64) { return t.accesses, t.misses }
