package core

import "repro/internal/ir"

// FieldStore names an extra jump-pointer field stored at creation time
// (full jumping installs a rib pointer next to the backbone pointer).
type FieldStore struct {
	// Off is the field offset within the home node.
	Off uint32
	// Val is the pointer value to store.
	Val ir.Val
}

// SWJumpQueue emits the software jump-pointer creation code of the
// queue method (paper §2.1, Figure 2(b)).  A circular queue of the last
// `interval` node addresses lives in the simulated global data area; on
// each Visit the node that entered the queue `interval` visits ago
// becomes the home of a jump-pointer to the current node.
//
// All instructions emitted by Visit are tagged as overhead, so the
// costs table and Figure 6 normalization see them as prefetching code,
// and they are exactly the instructions responsible for the "a priori
// slowdown" the paper measures for software creation (§4.2).
type SWJumpQueue struct {
	a        *ir.Asm
	siteBase int
	qaddr    uint32
	interval int
	jumpOff  uint32
	pos      int
}

// SWJumpQueueSites is the number of static instruction sites a
// SWJumpQueue consumes starting at its site base when Visit is called
// with at most one extra FieldStore (the common case: site layout is
// s+0..s+5 for the queue operations, s+6 for Reset's clearing store,
// and s+7 for the single extra).
const SWJumpQueueSites = 8

// SWJumpQueueSitesFor is the number of static sites a queue consumes
// when Visit passes up to maxExtras extra FieldStores.  Each extra
// occupies its own site (distinct static PC) so per-PC predictor
// training and site accounting see each installed field separately.
func SWJumpQueueSitesFor(maxExtras int) int {
	if maxExtras <= 1 {
		return SWJumpQueueSites
	}
	return 7 + maxExtras
}

// NewSWJumpQueue builds a creation queue.
//
//	a         - the kernel's assembler
//	siteBase  - first of SWJumpQueueSites static sites reserved for it
//	globalOff - offset of its queue array in the global data area
//	            (interval words)
//	interval  - jump-pointer distance in nodes
//	jumpOff   - offset of the jump-pointer field within home nodes
func NewSWJumpQueue(a *ir.Asm, siteBase int, globalOff uint32, interval int, jumpOff uint32) *SWJumpQueue {
	return &SWJumpQueue{
		a:        a,
		siteBase: siteBase,
		qaddr:    ir.GlobalBase + globalOff,
		interval: interval,
		jumpOff:  jumpOff,
	}
}

// Interval returns the queue's jump-pointer distance.
func (q *SWJumpQueue) Interval() int { return q.interval }

// Visit installs cur into the queue and, once the queue is primed,
// stores a jump-pointer to cur (plus any extra fields) into the node
// visited `interval` visits ago.  It does not retain extras, so a
// caller may reuse the slice.
func (q *SWJumpQueue) Visit(cur ir.Val, extras ...FieldStore) {
	q.a.Overhead(func() {
		s := q.siteBase
		slot := ir.Imm(q.qaddr + uint32(q.pos)*4)
		// home = queue[pos]; queue[pos] = cur
		home := q.a.Load(s, slot, 0, 0)
		q.a.Store(s+1, slot, 0, cur)
		// pos = (pos + 1) % interval : add + compare/branch
		idx := q.a.AddImm(s+2, ir.Imm(uint32(q.pos)), 1)
		wrap := q.pos+1 == q.interval
		q.a.Branch(s+3, wrap, s, idx, ir.Imm(uint32(q.interval)))
		// if (home) home->jump = cur
		q.a.Branch(s+4, home.IsNil(), s+6, home, ir.Val{})
		if !home.IsNil() {
			q.a.Store(s+5, home, q.jumpOff, cur)
			// Each extra field gets its own static site: aliasing
			// them to one PC would merge distinct store sites in
			// per-PC predictor training and site accounting.
			for i, x := range extras {
				q.a.Store(s+7+i, home, x.Off, x.Val)
			}
		}
	})
	q.pos++
	if q.pos == q.interval {
		q.pos = 0
	}
}

// Reset clears the queue between traversals of different structures so
// jump-pointers never cross structure boundaries.  It emits the loop
// that zeroes the queue array.
func (q *SWJumpQueue) Reset() {
	q.a.Overhead(func() {
		s := q.siteBase
		for i := 0; i < q.interval; i++ {
			q.a.Store(s+6, ir.Imm(q.qaddr+uint32(i)*4), 0, ir.Val{})
		}
	})
	q.pos = 0
}

// JumpPrefetch emits the jump-pointer prefetch that pairs with
// SWJumpQueue's creation code: it fetches the node whose address sits
// in node's jump-pointer field at jumpOff (paper §2.2).  Only the
// chaser differs between the implementations (§3):
//
//   - cooperative (coop): one Prefetch of the jump-pointer word at
//     site, flagged ir.FJumpChase; the DBP hardware reads the fetched
//     pointer and prefetches its target.  The returned Val is the zero
//     Val.
//   - software: an overhead Load of the jump pointer at site, then a
//     Prefetch of the loaded address at site+1.  The loaded pointer is
//     returned so root jumping can keep chasing from it.
func JumpPrefetch(a *ir.Asm, site int, node ir.Val, jumpOff uint32, coop bool) ir.Val {
	if coop {
		a.Prefetch(site, node, jumpOff, ir.FJumpChase)
		return ir.Val{}
	}
	var j ir.Val
	a.Overhead(func() {
		j = a.Load(site, node, jumpOff, 0)
		a.Prefetch(site+1, j, 0, 0)
	})
	return j
}
