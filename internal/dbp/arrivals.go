package dbp

import (
	"math/bits"
	"slices"
)

// arrival is a prefetch whose data returns to the chaser at done.
type arrival struct {
	done  uint64
	addr  uint32
	pc    uint32
	depth int
	// jumpWord marks the completion of a cooperative jump-pointer
	// prefetch: the fetched word is a node pointer to chase and to
	// register as a potential producer.
	jumpWord bool
}

// Sizes of the arrival queue's two indexes (powers of two).  On the
// benchmark workloads at least 99.27 % of arrivals complete within
// 1,024 cycles of their add, and none later than 2,904 (EXPERIMENTS.md),
// so one wheel turn covers nearly every arrival.  A later one shares a
// slot with nearer ones: every pass over that slot before it is due
// walks it again, and the next-event bound stops at its slot.
const (
	wheelSlots  = 1024
	lineBuckets = 1024
	nilNode     = -1
)

// ends holds the first and last node of a list (nilNode when empty).
type ends struct{ head, tail int32 }

var noEnds = ends{nilNode, nilNode}

// arrivalNode is a pooled queue entry.  Every live node is on the
// arrival-order list and, unless it carries a jump word (which never
// dedups), on its line bucket's chain; it is on exactly one of the
// wheel, the due list or the retired list.
type arrivalNode struct {
	arrival
	seq          uint64 // arrival number: the queue's order
	prev, next   int32  // arrival order; next also links the free list
	lprev, lnext int32  // line bucket chain, in arrival order
	link         int32  // wheel slot, due list or retired list
	// rank is the node's place in the current Tick's processing order,
	// or -1 while it is unprocessed.
	rank int32
}

// arrivalQueue holds the prefetches whose data has not yet reached the
// chaser.  A timing wheel keyed by done lets a Tick touch only the
// arrivals that are due, and per-line chains let a dedup walk only the
// entries on its line.
//
// The queue reproduces exactly what the compacting slice it replaced
// exposed (the slice survives as the test model sliceQueue):
//
//   - A Tick processes due arrivals in arrival order while the query
//     quota lasts, including continuations it appends with a past done.
//   - Outside a Tick a dedup matches the oldest entry on the line.
//     During one it ranks, in arrival order within each group:
//     unprocessed entries older than the arrival being processed; then
//     arrivals processed earlier in this Tick (the current one included)
//     that the slice still held in their slots; then newer entries.
//     Processed arrival p kept its slot iff the unprocessed entries
//     between p and the current arrival number no more than the
//     arrivals processed before p in this Tick (see visible).
//
// Tick must see a non-decreasing clock.
type arrivalQueue struct {
	nodes []arrivalNode
	free  int32
	seq   uint64

	order ends // arrival order

	lineShift uint
	lineMask  uint32
	buckets   [lineBuckets]ends

	// Every arrival with done <= cursor has left the wheel.  wheelMin is
	// a lower bound on the done times in the wheel (^uint64(0) when
	// none), exact after an add; once the clock reaches it, the
	// occupancy bitmap yields the next one.
	cursor   uint64
	wheelMin uint64
	slots    [wheelSlots]ends
	occupied [wheelSlots / 64]uint64

	// due holds the arrivals with done <= cursor that are not yet
	// processed, in arrival order.
	due ends

	// retired lists the arrivals processed in the current Tick; they
	// stay on their chains, for the in-Tick dedup rule, until endTick.
	// cur is the arrival being processed, or nilNode outside a Tick.
	retired int32
	nproc   int32
	cur     int32
}

func (q *arrivalQueue) init(lineBytes int) {
	q.free, q.retired, q.cur = nilNode, nilNode, nilNode
	q.order, q.due = noEnds, noEnds
	q.wheelMin = ^uint64(0)
	q.lineShift = uint(bits.TrailingZeros(uint(lineBytes)))
	q.lineMask = ^uint32(lineBytes - 1)
	for i := range q.buckets {
		q.buckets[i] = noEnds
	}
	for i := range q.slots {
		q.slots[i] = noEnds
	}
}

// hasDue reports whether an arrival is due and unprocessed.
func (q *arrivalQueue) hasDue() bool { return q.due.head != nilNode }

func (q *arrivalQueue) bucket(addr uint32) int {
	return int(addr>>q.lineShift) & (lineBuckets - 1)
}

// add enqueues a as the newest arrival.
func (q *arrivalQueue) add(a arrival) {
	x := q.free
	if x == nilNode {
		x = int32(len(q.nodes))
		q.nodes = append(q.nodes, arrivalNode{})
	} else {
		q.free = q.nodes[x].next
	}
	n := &q.nodes[x]
	n.arrival, n.seq, n.rank = a, q.seq, -1
	n.prev, n.next = q.order.tail, nilNode
	n.lprev, n.lnext, n.link = nilNode, nilNode, nilNode
	q.seq++
	if t := q.order.tail; t == nilNode {
		q.order.head = x
	} else {
		q.nodes[t].next = x
	}
	q.order.tail = x
	if !a.jumpWord {
		c := &q.buckets[q.bucket(a.addr)]
		if t := c.tail; t == nilNode {
			c.head = x
		} else {
			n.lprev = t
			q.nodes[t].lnext = x
		}
		c.tail = x
	}
	if a.done <= q.cursor {
		// The newest arrival: appending keeps the due list in order.
		if t := q.due.tail; t == nilNode {
			q.due.head = x
		} else {
			q.nodes[t].link = x
		}
		q.due.tail = x
		return
	}
	s := int(a.done & (wheelSlots - 1))
	if t := q.slots[s].tail; t == nilNode {
		q.slots[s].head = x
		q.occupied[s>>6] |= 1 << (s & 63)
	} else {
		q.nodes[t].link = x
	}
	q.slots[s].tail = x
	if a.done < q.wheelMin {
		q.wheelMin = a.done
	}
}

// match returns the arrival a request for line dedups against, or nil.
// The pointer is valid until the next add.
func (q *arrivalQueue) match(line uint32) *arrival {
	b := q.bucket(line)
	if q.cur == nilNode {
		for x := q.buckets[b].head; x != nilNode; x = q.nodes[x].lnext {
			if q.nodes[x].addr&q.lineMask == line {
				return &q.nodes[x].arrival
			}
		}
		return nil
	}
	curSeq := q.nodes[q.cur].seq
	newer := int32(nilNode)
	processed := false
	for x := q.buckets[b].head; x != nilNode; x = q.nodes[x].lnext {
		n := &q.nodes[x]
		if n.addr&q.lineMask != line {
			continue
		}
		if n.seq > curSeq {
			newer = x
			break
		}
		if n.rank < 0 {
			return &n.arrival
		}
		processed = true
	}
	if processed {
		// Every entry on the line before newer is processed.
		for x := q.buckets[b].head; x != newer; x = q.nodes[x].lnext {
			n := &q.nodes[x]
			if n.addr&q.lineMask == line && q.visible(x) {
				return &n.arrival
			}
		}
	}
	if newer == nilNode {
		return nil
	}
	return &q.nodes[newer].arrival
}

// visible reports whether processed arrival p still held its slot in
// the compacting slice: p sat at position (kept before p) + rank(p),
// and the entries kept so far fill positions up to (kept before cur).
func (q *arrivalQueue) visible(p int32) bool {
	budget := q.nodes[p].rank
	for x := p; x != q.cur; {
		x = q.nodes[x].next
		if q.nodes[x].rank < 0 {
			if budget == 0 {
				return false
			}
			budget--
		}
	}
	return true
}

// advance moves the clock to now and puts every arrival with done <=
// now on the due list.  A clock that skipped cycles without a Tick (a
// sampled run's fast-forward) is caught up over the whole gap.
func (q *arrivalQueue) advance(now uint64) {
	if now < q.wheelMin {
		// Nothing in the wheel is due; wheelMin > cursor always.
		if now > q.cursor {
			q.cursor = now
		}
		return
	}
	q.collect(now)
}

// collect is advance's slow path, kept apart so that advance inlines
// into the per-cycle Tick.  Its caller guarantees now > cursor.
func (q *arrivalQueue) collect(now uint64) {
	if now == q.cursor+1 {
		h, t := q.collectSlot(int(now&(wheelSlots-1)), now)
		q.mergeDue(h, t)
	} else {
		q.collectGap(now)
	}
	q.cursor = now
	q.wheelMin = q.nextBound(now)
}

// collectSlot unlinks slot s's arrivals with done <= now and returns
// them as a list in arrival order.
func (q *arrivalQueue) collectSlot(s int, now uint64) (head, tail int32) {
	head, tail = nilNode, nilNode
	kh, kt := int32(nilNode), int32(nilNode)
	for x := q.slots[s].head; x != nilNode; {
		n := &q.nodes[x]
		nx := n.link
		n.link = nilNode
		if n.done <= now {
			if tail == nilNode {
				head = x
			} else {
				q.nodes[tail].link = x
			}
			tail = x
		} else {
			if kt == nilNode {
				kh = x
			} else {
				q.nodes[kt].link = x
			}
			kt = x
		}
		x = nx
	}
	q.slots[s] = ends{kh, kt}
	if kh == nilNode {
		q.occupied[s>>6] &^= 1 << (s & 63)
	}
	return head, tail
}

// collectGap collects the arrivals due in (cursor, now] when the clock
// moved by more than one cycle: every slot those cycles map to is
// drained and the result sorted into arrival order.
func (q *arrivalQueue) collectGap(now uint64) {
	from := q.cursor + 1
	if q.wheelMin > from {
		from = q.wheelMin
	}
	span := now - from + 1
	if span > wheelSlots {
		span = wheelSlots
	}
	var got []int32
	for c := from; c < from+span; c++ {
		for x, _ := q.collectSlot(int(c&(wheelSlots-1)), now); x != nilNode; x = q.nodes[x].link {
			got = append(got, x)
		}
	}
	if len(got) == 0 {
		return
	}
	slices.SortFunc(got, func(a, b int32) int {
		if q.nodes[a].seq < q.nodes[b].seq {
			return -1
		}
		return 1
	})
	for i := 1; i < len(got); i++ {
		q.nodes[got[i-1]].link = got[i]
	}
	q.mergeDue(got[0], got[len(got)-1])
}

// mergeDue merges the arrival-ordered list head..tail into the due list.
func (q *arrivalQueue) mergeDue(head, tail int32) {
	if head == nilNode {
		return
	}
	q.nodes[tail].link = nilNode
	if q.due.head == nilNode {
		q.due.head, q.due.tail = head, tail
		return
	}
	if q.nodes[q.due.tail].seq < q.nodes[head].seq {
		q.nodes[q.due.tail].link = head
		q.due.tail = tail
		return
	}
	// Arrivals the quota held back interleave with the new ones.
	a, b := q.due.head, head
	var h, t int32 = nilNode, nilNode
	for a != nilNode && b != nilNode {
		var x int32
		if q.nodes[a].seq < q.nodes[b].seq {
			x, a = a, q.nodes[a].link
		} else {
			x, b = b, q.nodes[b].link
		}
		if t == nilNode {
			h = x
		} else {
			q.nodes[t].link = x
		}
		t = x
	}
	rest := a
	if rest == nilNode {
		rest = b
	}
	q.nodes[t].link = rest
	for ; rest != nilNode; rest = q.nodes[rest].link {
		t = rest
	}
	q.due.head, q.due.tail = h, t
}

// nextBound returns a lower bound on the done times left in the wheel
// after the clock reached now: the first occupied slot after now's.
func (q *arrivalQueue) nextBound(now uint64) uint64 {
	s := int((now + 1) & (wheelSlots - 1))
	w := s >> 6
	m := q.occupied[w] &^ (1<<(s&63) - 1)
	for i := 0; i <= len(q.occupied); i++ {
		if m != 0 {
			slot := (w<<6 | bits.TrailingZeros64(m))
			return now + 1 + uint64((slot-s)&(wheelSlots-1))
		}
		w = (w + 1) % len(q.occupied)
		m = q.occupied[w]
	}
	return ^uint64(0)
}

// next starts processing the oldest due arrival and returns it; ok is
// false when nothing is due.  The caller checks the query quota first.
func (q *arrivalQueue) next() (a arrival, ok bool) {
	x := q.due.head
	if x == nilNode {
		return arrival{}, false
	}
	n := &q.nodes[x]
	q.due.head = n.link
	if q.due.head == nilNode {
		q.due.tail = nilNode
	}
	n.rank = q.nproc
	q.nproc++
	n.link = q.retired
	q.retired = x
	q.cur = x
	return n.arrival, true
}

// endTick frees the arrivals processed in this Tick.
func (q *arrivalQueue) endTick() {
	for x := q.retired; x != nilNode; {
		n := &q.nodes[x]
		nx := n.link
		if n.prev == nilNode {
			q.order.head = n.next
		} else {
			q.nodes[n.prev].next = n.next
		}
		if n.next == nilNode {
			q.order.tail = n.prev
		} else {
			q.nodes[n.next].prev = n.prev
		}
		if !n.jumpWord {
			c := &q.buckets[q.bucket(n.addr)]
			if n.lprev == nilNode {
				c.head = n.lnext
			} else {
				q.nodes[n.lprev].lnext = n.lnext
			}
			if n.lnext == nilNode {
				c.tail = n.lprev
			} else {
				q.nodes[n.lnext].lprev = n.lprev
			}
		}
		n.next = q.free
		q.free = x
		x = nx
	}
	q.retired, q.cur, q.nproc = nilNode, nilNode, 0
}
