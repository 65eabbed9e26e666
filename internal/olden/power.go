package olden

import (
	"repro/internal/core"
	"repro/internal/ir"
)

// power solves a power-system pricing optimization over a fixed
// four-level distribution tree (root -> feeders -> laterals ->
// branches -> leaves), with heavy floating-point work — including
// divisions — at every node.  Its memory-latency component is tiny
// (Table 1), so "even the smallest computation overheads introduced by
// software prefetching overwhelm the potential benefit and produce an
// overall slowdown" (§4.2).
//
// Node layout: value(0) demand(4) child0..3(8..20) next(24) = 28 -> 32.
const (
	pwValue = 0
	pwChild = 8
	pwNext  = 24
	pwJump  = 28
)

const (
	pwBuild = ir.FirstUserSite + iota*10
	pwWalk
	pwCompute
	pwIdiom
	pwQueue
)

func init() {
	register(&Benchmark{
		Name:        "power",
		Description: "power system pricing optimization (compute bound)",
		Structures:  "fixed multiway distribution tree",
		Behavior:    "small working set, FP-division dominated",
		Idioms:      []core.Idiom{core.IdiomQueue},
		Traversals:  10,
		Kernel:      powerKernel,
	})
}

type powerCfg struct {
	feeders, laterals, branches int
	iters                       int
}

func powerSizes(s Size) powerCfg {
	switch s {
	case SizeTest:
		return powerCfg{feeders: 2, laterals: 2, branches: 2, iters: 2}
	case SizeSmall:
		return powerCfg{feeders: 4, laterals: 8, branches: 4, iters: 4}
	case SizeLarge:
		// power stays compute-bound by design; double the network.
		return powerCfg{feeders: 8, laterals: 8, branches: 8, iters: 10}
	default:
		// ~1.4K nodes x 32B = ~45KB: L1-resident by design.
		return powerCfg{feeders: 4, laterals: 8, branches: 8, iters: 10}
	}
}

func powerKernel(p Params) func(*ir.Asm) {
	cfg := powerSizes(p.Size)
	idiom := p.SWIdiom(core.IdiomQueue)
	coop := p.Coop()

	return func(a *ir.Asm) {
		r := NewRNG(0x2fcf2d31)

		// ---- build the distribution tree as sibling lists ----
		makeNode := func() ir.Val {
			n := a.Malloc(28)
			a.Store(pwBuild, n, pwValue, ir.Imm(r.Next()%1000+1))
			return n
		}
		var level func(count, depth int) ir.Val
		level = func(count, depth int) ir.Val {
			var head, prev ir.Val
			for i := 0; i < count; i++ {
				n := makeNode()
				if depth > 0 {
					sub := 0
					switch depth {
					case 3:
						sub = cfg.laterals
					case 2:
						sub = cfg.branches
					case 1:
						sub = 4 // leaves per branch
					}
					c := level(sub, depth-1)
					a.Store(pwBuild+1, n, pwChild, c)
				}
				if prev.IsNil() {
					head = n
				} else {
					a.Store(pwBuild+2, prev, pwNext, n)
				}
				prev = n
			}
			return head
		}
		root := makeNode()
		feeders := level(cfg.feeders, 3)
		a.Store(pwBuild+3, root, pwChild, feeders)

		var queue *core.SWJumpQueue
		if idiom == core.IdiomQueue {
			queue = core.NewSWJumpQueue(a, pwQueue, 0, p.EffectiveInterval(), pwJump)
		}

		// compute walks sibling lists depth-first, performing the
		// power-flow arithmetic: multiplies, adds and one division per
		// node (the serializing FP pipeline the paper's Table 1 blames).
		var compute func(n ir.Val) ir.Val
		compute = func(n ir.Val) ir.Val {
			sum := ir.Val{}
			for !n.IsNil() {
				if idiom == core.IdiomQueue {
					if coop && p.PrefetchOn() {
						a.Prefetch(pwIdiom, n, pwJump, ir.FJumpChase)
					} else if p.PrefetchOn() {
						a.Overhead(func() {
							j := a.Load(pwIdiom, n, pwJump, 0)
							a.Prefetch(pwIdiom+1, j, 0, 0)
						})
					}
					queue.Visit(n)
				}
				v := a.Load(pwWalk, n, pwValue, ir.FLDS)
				c := a.Load(pwWalk+1, n, pwChild, ir.FLDS)
				var cs ir.Val
				if !c.IsNil() {
					a.Push(pwWalk+2, v)
					a.Call(pwWalk+3, pwWalk)
					cs = compute(c)
					v = a.Pop(pwWalk + 4)
				}
				// Power flow: v' = (v*a + cs*b) / (v + cs) style math.
				m1 := a.Op(pwCompute, ir.FpMult, v.U32()*3, v, cs)
				m2 := a.Op(pwCompute+1, ir.FpMult, cs.U32()*5, cs, v)
				s1 := a.Op(pwCompute+2, ir.FpAdd, m1.U32()+m2.U32(), m1, m2)
				d := a.Op(pwCompute+3, ir.FpDiv, s1.U32()/3+1, s1, v)
				d2 := a.Op(pwCompute+7, ir.FpDiv, d.U32()/5+1, d, m2)
				m3 := a.Op(pwCompute+8, ir.FpMult, d2.U32()*7, d2, s1)
				s2 := a.Op(pwCompute+4, ir.FpAdd, m3.U32()+1, m3, m1)
				a.Store(pwCompute+5, n, pwValue, s2)
				sum = a.Op(pwCompute+6, ir.FpAdd, sum.U32()+s2.U32(), sum, s2)

				nx := a.Load(pwWalk+5, n, pwNext, ir.FLDS)
				a.Branch(pwWalk+6, !nx.IsNil(), pwWalk, nx, ir.Val{})
				n = nx
			}
			a.Ret(pwIdiom + 2)
			return sum
		}

		for it := 0; it < cfg.iters; it++ {
			total := compute(root)
			a.StoreGlobal(pwIdiom+3, 0x100, total)
		}
	}
}
