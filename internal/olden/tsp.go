package olden

import (
	"repro/internal/core"
	"repro/internal/ir"
)

// tsp builds a travelling-salesman tour: cities are partitioned with a
// binary tree, per-partition subtours are formed as doubly-linked
// lists, and merge steps *splice* the lists together, relinking nodes
// constantly.  The tour list is "large and extremely volatile" — by
// the time a jump-pointer's target would be useful the list has been
// rearranged — so explicit jump-pointer prefetching is pure overhead
// (§2.2, §4.2).
//
// City layout: x(0) y(4) next(8) prev(12) weight(16) = 20 -> class 32;
// the jump slot lives in the padding at offset 20.
const (
	tcX    = 0
	tcY    = 4
	tcNext = 8
	tcPrev = 12
	tcJump = 20
)

const (
	tpBuild = ir.FirstUserSite + iota*10
	tpMerge
	tpWalk
	tpIdiom
	tpQueue
)

func init() {
	register(&Benchmark{
		Name:        "tsp",
		Description: "closest-point heuristic travelling-salesman tour",
		Structures:  "doubly-linked tour lists spliced by divide-and-conquer merges",
		Behavior:    "large and extremely volatile",
		Idioms:      []core.Idiom{core.IdiomQueue},
		Traversals:  2,
		Kernel:      tspKernel,
	})
}

func tspSizes(s Size) (cities int) {
	switch s {
	case SizeTest:
		return 32
	case SizeSmall:
		return 1024
	case SizeLarge:
		return 20000 // ~20K x 32B = 640KB tour nodes
	default:
		return 7000 // ~7K x 32B = 224KB tour nodes
	}
}

func tspKernel(p Params) func(*ir.Asm) {
	cities := tspSizes(p.Size)
	idiom := p.SWIdiom(core.IdiomQueue)
	coop := p.Coop()
	const nodeBytes = uint32(20)
	_ = idiom

	return func(a *ir.Asm) {
		r := NewRNG(0xd6e8feb8)

		var queue *core.SWJumpQueue
		if idiom == core.IdiomQueue {
			queue = core.NewSWJumpQueue(a, tpQueue, 0, p.EffectiveInterval(), tcJump)
		}

		// ---- build cities ----
		nodes := make([]ir.Val, cities)
		for i := range nodes {
			nodes[i] = a.Malloc(nodeBytes)
			a.Store(tpBuild, nodes[i], tcX, ir.Imm(r.Next()%10000))
			a.Store(tpBuild+1, nodes[i], tcY, ir.Imm(r.Next()%10000))
		}

		// makeTour recursively splits the city slice and splices the
		// two subtours at the closest pair of endpoints, walking both
		// lists to find splice points (the volatile part).
		link := func(x, y ir.Val) {
			a.Store(tpMerge, x, tcNext, y)
			a.Store(tpMerge+1, y, tcPrev, x)
		}
		var makeTour func(lo, hi int) (head, tail ir.Val)
		makeTour = func(lo, hi int) (ir.Val, ir.Val) {
			if hi-lo <= 2 {
				h := nodes[lo]
				t := nodes[hi-1]
				for i := lo; i+1 < hi; i++ {
					link(nodes[i], nodes[i+1])
				}
				return h, t
			}
			mid := (lo + hi) / 2
			h1, t1 := makeTour(lo, mid)
			h2, t2 := makeTour(mid, hi)
			// Walk a prefix of the first subtour comparing distances to
			// choose the splice point (data-dependent, volatile).
			cur := h1
			steps := (mid - lo) % 7
			for s := 0; s < steps; s++ {
				if idiom == core.IdiomQueue {
					if coop && p.PrefetchOn() {
						a.Prefetch(tpIdiom, cur, tcJump, ir.FJumpChase)
					} else if p.PrefetchOn() {
						a.Overhead(func() {
							j := a.Load(tpIdiom, cur, tcJump, 0)
							a.Prefetch(tpIdiom+1, j, 0, 0)
						})
					}
					queue.Visit(cur)
				}
				x := a.Load(tpWalk, cur, tcX, ir.FLDS)
				y := a.Load(tpWalk+1, cur, tcY, ir.FLDS)
				d := a.Op(tpWalk+2, ir.FpMult, x.U32()+y.U32(), x, y)
				a.Op(tpWalk+3, ir.FpAdd, d.U32(), d, y)
				nx := a.Load(tpWalk+4, cur, tcNext, ir.FLDS)
				a.Branch(tpWalk+5, s+1 < steps, tpWalk, nx, ir.Val{})
				if nx.IsNil() {
					break
				}
				cur = nx
			}
			// Splice: rotate the join point by relinking (mutation).
			link(t1, h2)
			return h1, t2
		}
		head, tail := makeTour(0, cities)
		link(tail, head) // close the cycle

		// ---- tour improvement pass: walk the cycle, occasionally
		// swapping adjacent cities (relinking as it goes) ----
		cur := head
		for i := 0; i < cities; i++ {
			if idiom == core.IdiomQueue {
				if coop && p.PrefetchOn() {
					a.Prefetch(tpIdiom+2, cur, tcJump, ir.FJumpChase)
				} else if p.PrefetchOn() {
					a.Overhead(func() {
						j := a.Load(tpIdiom+2, cur, tcJump, 0)
						a.Prefetch(tpIdiom+3, j, 0, 0)
					})
				}
				queue.Visit(cur)
			}
			x := a.Load(tpWalk+6, cur, tcX, ir.FLDS)
			nx := a.Load(tpWalk+7, cur, tcNext, ir.FLDS)
			if nx.IsNil() {
				break
			}
			nxx := a.Load(tpWalk+8, nx, tcX, ir.FLDS)
			swap := x.U32() > nxx.U32() && r.Intn(4) == 0
			a.Branch(tpMerge+2, swap, tpMerge+3, x, nxx)
			if swap && i+2 < cities {
				// Relink: cur <-> nx swap in the cycle.
				nn := a.Load(tpMerge+3, nx, tcNext, ir.FLDS)
				pv := a.Load(tpMerge+4, cur, tcPrev, ir.FLDS)
				link(pv, nx)
				link(nx, cur)
				link(cur, nn)
				cur = nx
			}
			nx2 := a.Load(tpWalk+9, cur, tcNext, ir.FLDS)
			a.Branch(tpMerge+5, i+1 < cities, tpWalk+6, nx2, ir.Val{})
			if nx2.IsNil() {
				break
			}
			cur = nx2
		}
	}
}
