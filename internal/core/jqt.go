package core

// MaxInterval is the largest queue interval the JQT supports per entry
// (Table 2 uses fixed 8-address queues; Figure 7 also evaluates 16).
const MaxInterval = 32

// JQT is the Jump Queue Table of the hardware JPP implementation
// (paper §3.3, Figure 3(b)): a small fully-associative table, one entry
// per active recurrent load, each holding a queue of that load's most
// recent input addresses.  When a recurrent load commits, the address
// at the head of the queue becomes the home of a jump-pointer to the
// current node.
type JQT struct {
	entries  []jqtEntry
	interval int
	tick     uint64
}

type jqtEntry struct {
	pc    uint32
	ring  [MaxInterval]uint32
	pos   int
	count int
	lru   uint64
	valid bool
}

// NewJQT builds a table with n entries and the given queue interval.
func NewJQT(n, interval int) *JQT {
	if interval <= 0 || interval > MaxInterval {
		panic("jqt: interval out of range")
	}
	return &JQT{entries: make([]jqtEntry, n), interval: interval}
}

// Visit records that the recurrent load at pc consumed input address
// addr.  Once the queue holds `interval` addresses, it returns the home
// node (the address queued `interval` visits ago) for jump-pointer
// installation.
func (t *JQT) Visit(pc, addr uint32) (home uint32, ok bool) {
	t.tick++
	var e *jqtEntry
	victim := &t.entries[0]
	for i := range t.entries {
		c := &t.entries[i]
		if c.valid && c.pc == pc {
			e = c
			break
		}
		if !c.valid {
			victim = c
		} else if victim.valid && c.lru < victim.lru {
			victim = c
		}
	}
	if e == nil {
		*victim = jqtEntry{pc: pc, valid: true}
		e = victim
	}
	e.lru = t.tick
	if e.count < t.interval {
		e.ring[(e.pos+e.count)%t.interval] = addr
		e.count++
		return 0, false
	}
	home = e.ring[e.pos]
	e.ring[e.pos] = addr
	e.pos = (e.pos + 1) % t.interval
	return home, true
}
