package dbp

import (
	"fmt"
	"math/rand"
	"testing"
)

// sliceQueue is the arrival queue the engine used before arrivalQueue:
// one unindexed slice in arrival order that every dedup scans and every
// Tick with something due compacts in place.  It is the reference model
// the indexed queue must reproduce exactly, its in-Tick dedup rule
// included: a dedup scans the whole slice, so an arrival processed
// earlier in the Tick stays visible until a later kept entry is
// compacted into its slot.
type sliceQueue struct {
	pending []arrival
	// pendingMin is the exact minimum done across pending
	// (^uint64(0) when pending is empty).
	pendingMin uint64
	lineMask   uint32

	// Tick state: pending[:n] holds the entries kept so far, with
	// minimum done kmin; pending[i] is the arrival being processed
	// while cur is set.
	now  uint64
	i, n int
	cur  bool
	kmin uint64
}

func newSliceQueue(lineBytes int) *sliceQueue {
	return &sliceQueue{pendingMin: ^uint64(0), lineMask: ^uint32(lineBytes - 1)}
}

func (m *sliceQueue) addPending(a arrival) {
	if a.done < m.pendingMin {
		m.pendingMin = a.done
	}
	m.pending = append(m.pending, a)
}

func (m *sliceQueue) add(a arrival) { m.addPending(a) }

func (m *sliceQueue) len() int { return len(m.pending) }

func (m *sliceQueue) match(line uint32) *arrival {
	for i := range m.pending {
		a := &m.pending[i]
		if a.jumpWord || a.addr&m.lineMask != line {
			continue
		}
		return a
	}
	return nil
}

func (m *sliceQueue) advance(now uint64) {
	m.now, m.i, m.n, m.cur, m.kmin = now, 0, 0, false, ^uint64(0)
}

func (m *sliceQueue) hasDue() bool { return m.pendingMin <= m.now }

func (m *sliceQueue) keep(i int) {
	if m.n != i {
		m.pending[m.n] = m.pending[i]
	}
	if d := m.pending[i].done; d < m.kmin {
		m.kmin = d
	}
	m.n++
}

func (m *sliceQueue) next() (arrival, bool) {
	if m.cur {
		m.i++
		m.cur = false
	}
	for ; m.i < len(m.pending); m.i++ {
		if m.pending[m.i].done > m.now {
			m.keep(m.i)
			continue
		}
		m.cur = true
		return m.pending[m.i], true
	}
	return arrival{}, false
}

func (m *sliceQueue) endTick() {
	if m.cur {
		m.i++
		m.cur = false
	}
	for ; m.i < len(m.pending); m.i++ {
		m.keep(m.i)
	}
	m.pending = m.pending[:m.n]
	m.pendingMin = m.kmin
}

// arrivalQueueOps is what the engine calls on its arrival queue; both
// the indexed queue and the slice model provide it.
type arrivalQueueOps interface {
	add(arrival)
	match(line uint32) *arrival
	advance(now uint64)
	hasDue() bool
	next() (arrival, bool)
	endTick()
	len() int
	nextEventBound() uint64
}

var (
	_ arrivalQueueOps = (*arrivalQueue)(nil)
	_ arrivalQueueOps = (*sliceQueue)(nil)
)

// len counts the live arrivals, processed ones awaiting endTick
// included.
func (q *arrivalQueue) len() int {
	n := 0
	for x := q.order.head; x != nilNode; x = q.nodes[x].next {
		n++
	}
	return n
}

const testLineBytes = 32

func newTestQueue() *arrivalQueue {
	q := new(arrivalQueue)
	q.init(testLineBytes)
	return q
}

// opReader feeds runArrivalDiff its choices; an exhausted
// stream reads as zeros.
type opReader struct{ b []byte }

func (r *opReader) more() bool { return len(r.b) > 0 }

func (r *opReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// runArrivalDiff drives the indexed queue and the slice model through
// the operation sequence ops encodes, the way the engine drives its
// queue, and fails on the first difference: in processing order, in
// the arrival a dedup matches (and so in a continuation's done time),
// in occupancy, or in the due / next-event state the engine's hint
// reads.  Every arrival gets a fresh pc, so equal arrivals are the same
// entry.
func runArrivalDiff(t testing.TB, ops []byte) {
	t.Helper()
	q, m := newTestQueue(), newSliceQueue(testLineBytes)
	r := &opReader{b: ops}
	var now uint64
	var pc uint32
	fresh := func() uint32 { pc++; return pc }

	// Eight lines, half of them sharing line buckets with the other
	// half, and a word within the line.
	addr := func() uint32 {
		c := r.byte()
		a := 0x10000000 + uint32(c&7)*testLineBytes + uint32(c>>3&7)*4
		if c&0x40 != 0 {
			a += lineBuckets * testLineBytes
		}
		return a
	}
	done := func() uint64 {
		c := r.byte()
		switch {
		case c < 32 && now >= uint64(c&3): // already due
			return now - uint64(c&3)
		case c < 224: // the usual fill latencies
			return now + 1 + uint64(c&63)
		default: // past one wheel turn
			return now + wheelSlots + uint64(c)*7
		}
	}
	add := func(a arrival) { q.add(a); m.addPending(a) }
	where := func() string { return fmt.Sprintf("cycle %d (%d bytes left)", now, len(r.b)) }

	// dedup mirrors EnqueuePrefetch's queue half for a request at
	// addr; same asks for a request identical to the match.
	dedup := func(addr uint32, depth int, same bool) {
		line := addr & ^uint32(testLineBytes-1)
		qa, ma := q.match(line), m.match(line)
		switch {
		case (qa == nil) != (ma == nil):
			t.Fatalf("%s: dedup of %#x: queue %v, model %v", where(), addr, qa, ma)
		case ma == nil:
			return
		case *qa != *ma:
			t.Fatalf("%s: dedup of %#x matched %+v, model %+v", where(), addr, *qa, *ma)
		case same:
			return
		}
		add(arrival{done: ma.done, addr: addr, pc: fresh(), depth: depth})
	}
	check := func() {
		if q.len() != m.len() {
			t.Fatalf("%s: %d arrivals queued, model %d", where(), q.len(), m.len())
		}
		if q.hasDue() != (m.pendingMin <= q.cursor) {
			t.Fatalf("%s: due %v at cursor %d, model minimum done %d",
				where(), q.hasDue(), q.cursor, m.pendingMin)
		}
		if !q.hasDue() && (q.wheelMin <= q.cursor || q.wheelMin > m.pendingMin) {
			t.Fatalf("%s: next-event bound %d at cursor %d, model minimum done %d",
				where(), q.wheelMin, q.cursor, m.pendingMin)
		}
	}

	for r.more() {
		switch op := r.byte() % 10; {
		case op < 4:
			add(arrival{done: done(), addr: addr(), pc: fresh(),
				depth: int(r.byte() % 4), jumpWord: op == 0})
		case op == 4:
			c := r.byte()
			dedup(addr(), int(c%4), c&0x80 != 0)
		case op == 5:
			// A sampled run's fast-forward: the clock moves and no Tick
			// sees the cycles in between.
			now += 2 + uint64(r.byte())*uint64(r.byte()%16)
		default:
			switch c := r.byte(); {
			case c < 8: // a second Tick in the same cycle
			case c < 32:
				now += 2 + uint64(c)
			default:
				now++
			}
			quota := 1 + int(r.byte()%4)
			q.advance(now)
			m.advance(now)
			for quota > 0 {
				qa, qok := q.next()
				ma, mok := m.next()
				if qok != mok || qa != ma {
					t.Fatalf("%s: processed %+v (%v), model %+v (%v)", where(), qa, qok, ma, mok)
				}
				if !mok {
					break
				}
				c := r.byte()
				for k := 0; k < int(c%4); k++ {
					dedup(addr(), ma.depth+1, r.byte()&1 != 0)
				}
				if c&0x10 == 0 {
					quota-- // the chase queried the predictor
				}
			}
			q.endTick()
			m.endTick()
		}
		check()
	}
}

// TestArrivalQueueMatchesSliceModel runs random operation sequences
// through the indexed queue and the slice model.
func TestArrivalQueueMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seed := 0; seed < 300; seed++ {
		ops := make([]byte, 4000)
		rng.Read(ops)
		runArrivalDiff(t, ops)
	}
}

func FuzzArrivalQueue(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		ops := make([]byte, 64<<i)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runArrivalDiff(t, ops) })
}

// TestArrivalQueueClockGap: arrivals that fall due in cycles no Tick
// visits, as in a sampled run's fast-forward, are all processed by the
// next Tick, in arrival order, whether the gap is shorter or longer
// than one wheel turn.
func TestArrivalQueueClockGap(t *testing.T) {
	for _, gap := range []uint64{300, 5 * wheelSlots} {
		q := newTestQueue()
		q.advance(10)
		q.endTick()
		dones := []uint64{200, 30, gap, 11, 2 * gap, 150}
		for i, d := range dones {
			q.add(arrival{done: d, addr: 0x1000 + uint32(i)*testLineBytes, pc: uint32(i)})
		}
		q.advance(10 + gap)
		var got []uint32
		for {
			a, ok := q.next()
			if !ok {
				break
			}
			got = append(got, a.pc)
		}
		q.endTick()
		if want := []uint32{0, 1, 2, 3, 5}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("gap %d: processed pcs %v, want %v", gap, got, want)
		}
		if q.len() != 1 {
			t.Errorf("gap %d: %d arrivals left, want 1", gap, q.len())
		}
	}
}

// BenchmarkArrivalQueue reports the host cost per arrival (one op is
// one arrival: its add, its share of the Ticks, a dedup lookup, and its
// processing) for the slice model and the indexed queue, at about 10
// and about 150 live arrivals.  Fill latencies follow arrivalLatencies,
// arrivals are processed under the engine's default quota of two per
// cycle, and the clock skips idle cycles the way the core does when the
// engine's hint allows it.
func BenchmarkArrivalQueue(b *testing.B) {
	for _, live := range []int{10, 150} {
		for _, impl := range []string{"slice", "wheel"} {
			b.Run(fmt.Sprintf("%s/live=%d", impl, live), func(b *testing.B) {
				var q arrivalQueueOps = newSliceQueue(testLineBytes)
				if impl == "wheel" {
					q = newTestQueue()
				}
				benchArrivals(b, q, live)
			})
		}
	}
}

// arrivalLatencies is the distribution of done minus the add cycle
// over every arrival of the paper-artifacts benchmark workload (19.6M
// arrivals): per latency range [lo, hi), its share in 1/10000.  The
// longest was 2,302 cycles.
var arrivalLatencies = []struct{ lo, hi, share uint32 }{
	{1, 128, 5964},
	{128, 256, 1822},
	{256, 512, 1772},
	{512, 1024, 369},
	{1024, 2303, 73},
}

// meanArrivalLatency is arrivalLatencies' mean, with each range drawn
// uniformly.
const meanArrivalLatency = 184

// nextEventBound is the lower bound on the earliest pending done that
// the engine's hint reads.
func (q *arrivalQueue) nextEventBound() uint64 { return q.wheelMin }
func (m *sliceQueue) nextEventBound() uint64   { return m.pendingMin }

func benchArrivals(b *testing.B, q arrivalQueueOps, live int) {
	x := uint32(1)
	rnd := func() uint32 { // xorshift32
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	latency := func() uint64 {
		r := rnd() % 10000
		for _, l := range arrivalLatencies {
			if r < l.share {
				return uint64(l.lo + rnd()%(l.hi-l.lo))
			}
			r -= l.share
		}
		panic("arrivalLatencies shares do not sum to 10000")
	}
	// live/meanArrivalLatency arrivals are added per cycle.
	var now uint64
	var credit, added, liveSum, ticks int
	b.ResetTimer()
	for n := 0; n < b.N; {
		for ; credit >= meanArrivalLatency; credit -= meanArrivalLatency {
			q.add(arrival{
				done: now + latency(),
				addr: 0x10000000 + rnd()%4096*testLineBytes,
				pc:   rnd(),
			})
			added++
		}
		q.advance(now)
		ticks++
		if q.hasDue() {
			for quota := 2; quota > 0; quota-- {
				a, ok := q.next()
				if !ok {
					break
				}
				q.match((a.addr + 0x2000) & ^uint32(testLineBytes-1))
				n++
			}
			q.endTick()
		}
		// The next cycle with work: the next add, or the next arrival
		// the hint allows for.  A skip ends with a Tick at the cycle
		// before, as in the core.
		next := now + uint64((meanArrivalLatency-credit+live-1)/live)
		if q.hasDue() {
			next = now + 1
		} else if bound := q.nextEventBound(); bound < next {
			next = max(bound, now+1)
		}
		if next > now+1 {
			q.advance(next - 1)
			ticks++
		}
		liveSum += (added - n) * int(next-now)
		credit += live * int(next-now)
		now = next
	}
	b.ReportMetric(float64(liveSum)/float64(now), "live")
	b.ReportMetric(float64(ticks)/float64(b.N), "ticks/arrival")
}
