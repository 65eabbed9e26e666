package olden

import (
	"repro/internal/core"
	"repro/internal/ir"
)

// treeadd sums the values in a balanced binary tree with a recursive
// depth-first walk.  A backbone-only structure: queue jumping is the
// only applicable idiom (Table 1).  The original makes a handful of
// passes; the hardware implementation spends the first pass installing
// jump-pointers and therefore forfeits part of the savings (§4.2).
//
// Node layout: value(0) left(4) right(8) level(12) chksum(16)
// = 20 -> class 32; the jump slot is the padding word at 20.
const (
	taValue = 0
	taLeft  = 4
	taRight = 8
	taJump  = 20
)

const (
	tsBuild = ir.FirstUserSite + iota*8
	tsWalk
	tsIdiom
	tsQueue
)

func init() {
	Register(FamilyOlden, &Benchmark{
		Name:        "treeadd",
		Description: "recursive sum over a balanced binary tree",
		Structures:  "static balanced binary tree",
		Behavior:    "built once, traversed a few times in fixed order",
		Idioms:      []core.Idiom{core.IdiomQueue},
		Traversals:  4,
		Kernel:      treeaddKernel,
	})
}

func treeaddSizes(s Size) (depth, passes int) {
	switch s {
	case SizeTest:
		return 6, 2
	case SizeSmall:
		return 12, 3
	case SizeLarge:
		return 17, 3 // 128K nodes x 32B = 4MB, 8x the L2
	default:
		// 32K nodes x 32B = 1MB: twice the L2, so every sweep misses to
		// memory, as the original's million-node tree does.  The paper
		// makes four passes; three keep simulation time in check while
		// preserving the warmup-vs-steady-state ratio that drives the
		// hardware-vs-software comparison.
		return 15, 3
	}
}

func treeaddKernel(p Params) func(*ir.Asm) {
	depth, passes := treeaddSizes(p.Size)
	idiom := p.SWIdiom(core.IdiomQueue)
	coop := p.Coop()

	return func(a *ir.Asm) {
		r := NewRNG(0xabcdef)

		// ---- build (same recursive order as the traversal) ----
		var build func(d int) ir.Val
		build = func(d int) ir.Val {
			n := a.Malloc(20)
			a.Store(tsBuild, n, taValue, ir.Imm(r.Next()%100))
			if d > 1 {
				l := build(d - 1)
				rt := build(d - 1)
				a.Store(tsBuild+1, n, taLeft, l)
				a.Store(tsBuild+2, n, taRight, rt)
			}
			return n
		}
		root := build(depth)

		var queue *core.SWJumpQueue
		if idiom == core.IdiomQueue {
			queue = core.NewSWJumpQueue(a, tsQueue, 0, p.EffectiveInterval(), taJump)
		}

		// ---- passes ----
		var walk func(n ir.Val) ir.Val
		walk = func(n ir.Val) ir.Val {
			// Prefetch the node queued `interval` visits ago's
			// successor: jump-pointer prefetch at visit.
			if idiom == core.IdiomQueue {
				if p.PrefetchOn() {
					core.JumpPrefetch(a, tsIdiom, n, taJump, coop)
				}
				queue.Visit(n)
			}
			sum := a.Load(tsWalk, n, taValue, ir.FLDS)
			l := a.Load(tsWalk+1, n, taLeft, ir.FLDS)
			rt := a.Load(tsWalk+2, n, taRight, ir.FLDS)
			a.Branch(tsWalk+3, l.IsNil(), tsWalk+6, l, ir.Val{})
			if !l.IsNil() {
				a.Push(tsWalk+4, rt)
				a.Call(tsWalk+5, tsWalk)
				ls := walk(l)
				rt = a.Pop(tsWalk + 6)
				a.Call(tsWalk+7, tsWalk)
				rs := walk(rt)
				sum = a.Alu(tsIdiom+2, sum.U32()+ls.U32()+rs.U32(), ls, rs)
			}
			a.Ret(tsIdiom + 3)
			return sum
		}
		total := ir.Val{}
		for pass := 0; pass < passes; pass++ {
			s := walk(root)
			total = a.Alu(tsIdiom+4, total.U32()+s.U32(), total, s)
		}
		a.StoreGlobal(tsIdiom+5, 0x100, total)
	}
}
