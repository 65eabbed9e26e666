// Package cache models the simulated memory hierarchy of the paper's
// Table 2: split 1-cycle L1 caches, a shared 12-cycle 512KB L2, 70-cycle
// main memory, 8B buses clocked at 1/2 (L1<->L2) and 1/4 (L2<->memory)
// of the core frequency with cycle-level occupancy, 8 outstanding data
// misses (MSHRs), instruction and data TLBs with 30-cycle hardware miss
// handling, and the 2KB prefetch buffer used by the hardware prefetching
// mechanisms.
//
// The hierarchy is a timing model only: data values live in the
// simulated memory image (internal/mem).  Latencies are computed, not
// event-simulated, but shared resources (buses, MSHRs, the TLB miss
// handler) are modelled as next-free-cycle reservations so that
// bandwidth contention — which drives Figure 6 and the voronoi result —
// is captured.
package cache

import "math/bits"

// Geom describes one cache's geometry.
type Geom struct {
	SizeBytes int
	LineBytes int
	Assoc     int
	// LatCycles is the access (hit) latency.
	LatCycles int
}

// Sets returns the number of sets.
func (g Geom) Sets() int { return g.SizeBytes / (g.LineBytes * g.Assoc) }

// line is one way's tag entry: 12 bytes.  lru is the line's recency
// stamp from the cache's 32-bit clock (see advance).
type line struct {
	tag   uint32
	lru   uint32
	valid bool
	dirty bool
}

// cache is a set-associative, LRU, write-back tag array.  The ways of
// set s occupy lines[s*assoc : (s+1)*assoc] — a single flat backing
// array, so a probe is one slice load plus arithmetic with no per-set
// header table to allocate or chase.
type cache struct {
	geom      Geom
	lines     []line
	assoc     int
	lineShift uint
	setMask   uint32
	tick      uint32
}

func newCache(g Geom) *cache {
	n := g.Sets()
	if n == 0 || n&(n-1) != 0 {
		panic("cache: set count must be a nonzero power of two")
	}
	return &cache{
		geom:      g,
		lines:     make([]line, n*g.Assoc),
		assoc:     g.Assoc,
		lineShift: uint(bits.TrailingZeros(uint(g.LineBytes))),
		setMask:   uint32(n - 1),
	}
}

// advance steps the LRU clock and returns the stamp for this access.
func (c *cache) advance() uint32 {
	c.tick++
	if c.tick == 0 {
		c.rewind()
	}
	return c.tick
}

// rewind runs when the clock wraps.  LRU only ever compares the stamps
// of valid ways within one set, so replacing each set's stamps by their
// ranks in that set (0 for its oldest way) keeps every future hit, fill
// and victim exactly as an unbounded clock would pick them; the clock
// then resumes at assoc, above every rank.  It stays out of line so
// that advance, which runs on every lookup and fill, still inlines.
//
//go:noinline
func (c *cache) rewind() {
	rank := make([]uint32, c.assoc)
	for base := 0; base < len(c.lines); base += c.assoc {
		ways := c.lines[base : base+c.assoc]
		for i := range ways {
			rank[i] = 0
			for j := range ways {
				if ways[j].valid && ways[j].lru < ways[i].lru {
					rank[i]++
				}
			}
		}
		for i := range ways {
			ways[i].lru = rank[i]
		}
	}
	c.tick = uint32(c.assoc)
}

func (c *cache) index(addr uint32) (set uint32, tag uint32) {
	l := addr >> c.lineShift
	return l & c.setMask, l >> bits.TrailingZeros32(c.setMask+1)
}

// lookup probes for addr; on hit it refreshes LRU state.  Hit/miss
// accounting is the hierarchy's job (prefetch probes must not pollute
// demand statistics).
func (c *cache) lookup(addr uint32) bool {
	now := c.advance()
	set, tag := c.index(addr)
	ways := c.ways(set)
	for i := range ways {
		ln := &ways[i]
		if ln.valid && ln.tag == tag {
			ln.lru = now
			return true
		}
	}
	return false
}

// ways returns set's ways as a subslice of the flat backing array.
func (c *cache) ways(set uint32) []line {
	base := int(set) * c.assoc
	return c.lines[base : base+c.assoc]
}

// probe checks presence without touching LRU or counters.
func (c *cache) probe(addr uint32) bool {
	set, tag := c.index(addr)
	ways := c.ways(set)
	for i := range ways {
		ln := &ways[i]
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// setDirty marks addr's line dirty if present.
func (c *cache) setDirty(addr uint32) {
	set, tag := c.index(addr)
	ways := c.ways(set)
	for i := range ways {
		ln := &ways[i]
		if ln.valid && ln.tag == tag {
			ln.dirty = true
			return
		}
	}
}

// fill installs addr's line, returning the evicted victim line address
// and whether it was valid+dirty.
func (c *cache) fill(addr uint32) (victimAddr uint32, victimDirty bool, hadVictim bool) {
	now := c.advance()
	set, tag := c.index(addr)
	ways := c.ways(set)
	victim := &ways[0]
	for i := range ways {
		ln := &ways[i]
		if ln.valid && ln.tag == tag {
			// Already present (raced fills merge).
			ln.lru = now
			return 0, false, false
		}
		if !ln.valid {
			victim = ln
		} else if victim.valid && ln.lru < victim.lru {
			victim = ln
		}
	}
	if victim.valid {
		hadVictim = true
		victimDirty = victim.dirty
		// Reconstruct the victim address from its tag and this set.
		victimAddr = (victim.tag*(c.setMask+1) + set) << c.lineShift
	}
	victim.valid = true
	victim.dirty = false
	victim.tag = tag
	victim.lru = now
	return victimAddr, victimDirty, hadVictim
}

// invalidate removes addr's line if present.
func (c *cache) invalidate(addr uint32) {
	set, tag := c.index(addr)
	ways := c.ways(set)
	for i := range ways {
		ln := &ways[i]
		if ln.valid && ln.tag == tag {
			ln.valid = false
			return
		}
	}
}

func (c *cache) lineAddr(addr uint32) uint32 {
	return addr >> c.lineShift << c.lineShift
}
