package kernels

import (
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/olden"
)

// quicklist models a QuickList (SNIPPETS.md snippet 3): a singly-linked
// list whose nodes carry a skip pointer to the node `interval` links
// ahead, maintained by the data structure itself — appended during
// construction and re-pointed on every insert and remove.  Because the
// skip field is architectural state written under every scheme, the
// software and cooperative schemes need no creation idiom at all: the
// prefetch simply chases a pointer the program keeps correct anyway,
// so the paper's "a priori creation overhead" is zero and the only
// cost is the maintenance the structure already pays.
//
// Layout (payload bytes; blocks round to power-of-two classes):
//
//	node: val(0) next(4) skip(8) = 12 -> 16
const (
	qlVal  = 0
	qlNext = 4
	qlSkip = 8
)

// Static sites for quicklist.
const (
	qlBuild = ir.FirstUserSite + iota*8
	qlWalk
	qlChurn
	qlFix
	qlIdiom
)

func init() {
	Register(&Benchmark{
		Name:        "quicklist",
		Description: "list that maintains its own jump pointers (QuickList)",
		Structures:  "singly-linked list + structural skip pointers",
		Behavior:    "full walks between insert/remove churn; zero creation idiom",
		Idioms:      []core.Idiom{core.IdiomChain},
		Traversals:  8,
		Extension:   true,
		Kernel:      quicklistKernel,
	})
}

type quicklistCfg struct {
	nodes  int
	rounds int // walk + churn rounds
	churn  int // insert/remove pairs per round
}

func quicklistSizes(s Size) quicklistCfg {
	switch s {
	case SizeTest:
		return quicklistCfg{nodes: 48, rounds: 2, churn: 6}
	case SizeSmall:
		return quicklistCfg{nodes: 2048, rounds: 3, churn: 128}
	case SizeLarge:
		// 64K x 16B = 1MB of nodes: well past the L2.
		return quicklistCfg{nodes: 64000, rounds: 4, churn: 4000}
	default:
		// 24K x 16B = 384KB of nodes: far beyond the L1, most of the
		// way into the L2.
		return quicklistCfg{nodes: 24000, rounds: 4, churn: 1500}
	}
}

func quicklistKernel(p Params) func(*ir.Asm) {
	cfg := quicklistSizes(p.Size)
	idiom := p.SWIdiom(core.IdiomChain)
	isCoop := p.Coop()
	dist := p.EffectiveInterval() // structural skip distance

	return func(a *ir.Asm) {
		r := olden.NewRNG(0x45d9f3b3)

		// order mirrors the list so churn knows each node's position;
		// every link and skip mutation is still emitted.
		var order chunkSeq

		// fixSkips re-points the skip fields of the dist nodes ending
		// at position pos (a real QuickList carries this lag window in
		// its jump list; the snippet's left/right pointer shifts do the
		// same work).  Each re-point is one emitted store; targets past
		// the tail clear the field.
		fixSkips := func(pos int) {
			for j := pos; j >= pos-dist && j >= 0; j-- {
				tgt := ir.Imm(0)
				if j+dist < order.Len() {
					tgt = order.At(j + dist)
				}
				a.Store(qlFix, order.At(j), qlSkip, tgt)
			}
		}

		// Build: append nodes, installing each skip pointer as soon as
		// its target exists — construction maintains the structure.
		for i := 0; i < cfg.nodes; i++ {
			n := a.Malloc(12)
			a.Store(qlBuild, n, qlVal, ir.Imm(r.Next()&0xFFFF))
			if i > 0 {
				a.Store(qlBuild+1, order.At(i-1), qlNext, n)
			}
			order.Insert(i, n)
			if i >= dist {
				a.Store(qlBuild+2, order.At(i-dist), qlSkip, n)
			}
		}

		// walk chases the whole list; under the software schemes each
		// visit prefetches through the structural skip field (no
		// creation code, no jump queue).
		walk := func() {
			cur := order.At(0)
			sum := ir.Imm(0)
			for !cur.IsNil() {
				if p.PrefetchOn() && idiom != core.IdiomNone {
					queuePrefetch(a, qlIdiom, cur, qlSkip, isCoop)
				}
				v := a.Load(qlWalk, cur, qlVal, ir.FLDS)
				sum = a.Alu(qlWalk+1, sum.U32()+v.U32(), sum, v)
				nxt := a.Load(qlWalk+2, cur, qlNext, ir.FLDS)
				a.Branch(qlWalk+3, !nxt.IsNil(), qlWalk, nxt, ir.Val{})
				cur = nxt
			}
			acc := a.LoadGlobal(qlWalk+4, accBase)
			a.StoreGlobal(qlWalk+5, accBase, a.Alu(qlWalk+6, acc.U32()+sum.U32(), acc, sum))
		}

		insertAt := func(pos int) {
			n := a.Malloc(12)
			a.Store(qlChurn, n, qlVal, ir.Imm(r.Next()&0xFFFF))
			prev := order.At(pos)
			nxt := a.Load(qlChurn+1, prev, qlNext, ir.FLDS)
			a.Store(qlChurn+2, n, qlNext, nxt)
			a.Store(qlChurn+3, prev, qlNext, n)
			order.Insert(pos+1, n)
			fixSkips(pos + 1)
		}

		removeAt := func(pos int) {
			victim := order.At(pos)
			prev := order.At(pos - 1)
			nxt := a.Load(qlChurn+4, victim, qlNext, ir.FLDS)
			a.Store(qlChurn+5, prev, qlNext, nxt)
			a.FreeNode(victim)
			order.Remove(pos)
			fixSkips(pos - 1)
		}

		for round := 0; round < cfg.rounds; round++ {
			walk()
			for c := 0; c < cfg.churn; c++ {
				insertAt(r.Intn(order.Len() - 1))
				removeAt(r.Intn(order.Len()-2) + 1)
			}
		}
	}
}

// chunkSeq is the positional sequence quicklist's churn indexes into:
// a list of chunks, each at most 2*seqChunk long, so an insert or
// remove shifts one chunk and the chunk list instead of the whole
// sequence.  A cursor remembers the chunk the last call landed in, so
// the runs of neighbouring positions fixSkips reads cost O(1) each.
type chunkSeq struct {
	chunks [][]ir.Val
	n      int
	// cur is the cursor's chunk and curStart the position of its first
	// element.
	cur, curStart int
}

// seqChunk is the size a full chunk splits into.
const seqChunk = 512

// Len returns the number of elements.
func (s *chunkSeq) Len() int { return s.n }

// locate moves the cursor to the chunk holding position pos and
// returns pos's offset within it.  pos == Len() lands at the end of the
// last chunk.
func (s *chunkSeq) locate(pos int) int {
	for pos < s.curStart {
		s.cur--
		s.curStart -= len(s.chunks[s.cur])
	}
	for s.cur < len(s.chunks)-1 && pos >= s.curStart+len(s.chunks[s.cur]) {
		s.curStart += len(s.chunks[s.cur])
		s.cur++
	}
	return pos - s.curStart
}

// At returns the element at position pos.
func (s *chunkSeq) At(pos int) ir.Val {
	off := s.locate(pos)
	return s.chunks[s.cur][off]
}

// Insert places v at position pos (0 <= pos <= Len()), shifting the
// elements from pos onwards up by one.
func (s *chunkSeq) Insert(pos int, v ir.Val) {
	if len(s.chunks) == 0 {
		s.chunks = append(s.chunks, make([]ir.Val, 0, 2*seqChunk))
	}
	off := s.locate(pos)
	c := s.chunks[s.cur]
	if len(c) == 2*seqChunk {
		// Split the full chunk in half; the cursor's chunk keeps its
		// start, so only pos's side needs choosing.
		tail := append(make([]ir.Val, 0, 2*seqChunk), c[seqChunk:]...)
		s.chunks = append(s.chunks, nil)
		copy(s.chunks[s.cur+2:], s.chunks[s.cur+1:])
		s.chunks[s.cur] = c[:seqChunk]
		s.chunks[s.cur+1] = tail
		if off >= seqChunk {
			s.cur++
			s.curStart += seqChunk
			off -= seqChunk
		}
		c = s.chunks[s.cur]
	}
	c = append(c, ir.Val{})
	copy(c[off+1:], c[off:])
	c[off] = v
	s.chunks[s.cur] = c
	s.n++
}

// Remove deletes the element at position pos, shifting later elements
// down by one.  An emptied chunk leaves the list unless it is the last.
func (s *chunkSeq) Remove(pos int) {
	off := s.locate(pos)
	c := s.chunks[s.cur]
	copy(c[off:], c[off+1:])
	s.chunks[s.cur] = c[:len(c)-1]
	s.n--
	if len(c) == 1 && len(s.chunks) > 1 {
		s.chunks = append(s.chunks[:s.cur], s.chunks[s.cur+1:]...)
		s.cur, s.curStart = 0, 0
	}
}
