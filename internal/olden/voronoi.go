package olden

import (
	"repro/internal/core"
	"repro/internal/ir"
)

// voronoi computes a Voronoi diagram by divide and conquer.  Most of
// its cache misses come from recursive sweeps over the big point
// array — not from its (small) linked edge structure — so JPP targets
// the wrong misses: "software and cooperative prefetching actually
// increase the total memory latency, as useless prefetches contend for
// memory resources with array based cache misses" (§4.2).
//
// Edge layout: orig(0) dest(4) next(8) = 12 -> class 16, jump at 12.
const (
	voOrig = 0
	voDest = 4
	voNext = 8
	voJump = 12
)

const (
	vsBuild = ir.FirstUserSite + iota*10
	vsSort
	vsMerge
	vsEdge
	vsIdiom
	vsQueue
)

func init() {
	register(&Benchmark{
		Name:        "voronoi",
		Description: "Voronoi diagram by divide and conquer",
		Structures:  "large point arrays + small linked edge lists",
		Behavior:    "misses dominated by array sweeps, not LDS",
		Idioms:      []core.Idiom{core.IdiomQueue},
		Traversals:  1,
		Kernel:      voronoiKernel,
	})
}

func voronoiSizes(s Size) (points int) {
	switch s {
	case SizeTest:
		return 64
	case SizeSmall:
		return 4 << 10
	case SizeLarge:
		return 144 << 10 // 144K points x 8B = 1.1MB array
	default:
		return 48 << 10 // 48K points x 8B = 384KB array
	}
}

func voronoiKernel(p Params) func(*ir.Asm) {
	points := voronoiSizes(p.Size)
	idiom := p.SWIdiom(core.IdiomQueue)
	coop := p.Coop()

	return func(a *ir.Asm) {
		r := NewRNG(0x853c49e6)

		// ---- the point array (static data area): the real miss source ----
		arrBase := uint32(0x10000)
		for i := 0; i < points; i++ {
			a.StoreGlobal(vsBuild, arrBase+uint32(8*i), ir.Imm(r.Next()%100000))
			a.StoreGlobal(vsBuild+1, arrBase+uint32(8*i+4), ir.Imm(r.Next()%100000))
		}

		// ---- a modest linked edge list (the LDS that JPP targets) ----
		edges := make([]ir.Val, 0, points/16)
		for i := 0; i < points/16; i++ {
			e := a.Malloc(12)
			a.Store(vsEdge, e, voOrig, ir.Imm(r.Next()))
			edges = append(edges, e)
		}
		for i := 0; i+1 < len(edges); i++ {
			a.Store(vsEdge+1, edges[i], voNext, edges[i+1])
		}

		var queue *core.SWJumpQueue
		if idiom == core.IdiomQueue {
			queue = core.NewSWJumpQueue(a, vsQueue, 0, p.EffectiveInterval(), voJump)
		}

		// Recursive divide-and-conquer sweeps: each level reads the
		// whole array span (merge-sort-like traffic).
		var sweep func(lo, hi int)
		sweep = func(lo, hi int) {
			if hi-lo < 64 {
				for i := lo; i < hi; i++ {
					x := a.LoadGlobal(vsSort, 0x10000+uint32(8*i))
					y := a.LoadGlobal(vsSort+1, 0x10000+uint32(8*i+4))
					m := a.Op(vsSort+2, ir.FpMult, x.U32()^y.U32(), x, y)
					a.Op(vsSort+3, ir.FpAdd, m.U32(), m, x)
					a.Branch(vsSort+4, i+1 < hi, vsSort, m, ir.Val{})
				}
				return
			}
			mid := (lo + hi) / 2
			sweep(lo, mid)
			sweep(mid, hi)
			// Merge pass: stream both halves (array misses).
			for i := lo; i < hi; i += 2 {
				x := a.LoadGlobal(vsMerge, 0x10000+uint32(8*i))
				a.Op(vsMerge+1, ir.IntAlu, x.U32()+1, x, ir.Val{})
			}
		}
		sweep(0, points)

		// Edge-list walks (small LDS): where the idiom code lands.
		for pass := 0; pass < 3; pass++ {
			cur := edges[0]
			for i := 0; i < len(edges); i++ {
				if idiom == core.IdiomQueue {
					if coop && p.PrefetchOn() {
						a.Prefetch(vsIdiom, cur, voJump, ir.FJumpChase)
					} else if p.PrefetchOn() {
						a.Overhead(func() {
							j := a.Load(vsIdiom, cur, voJump, 0)
							a.Prefetch(vsIdiom+1, j, 0, 0)
						})
					}
					queue.Visit(cur)
				}
				o := a.Load(vsEdge+2, cur, voOrig, ir.FLDS)
				a.Alu(vsEdge+3, o.U32()^5, o, ir.Val{})
				nx := a.Load(vsEdge+4, cur, voNext, ir.FLDS)
				a.Branch(vsEdge+5, i+1 < len(edges), vsEdge+2, nx, ir.Val{})
				if nx.IsNil() {
					break
				}
				cur = nx
			}
		}
	}
}
