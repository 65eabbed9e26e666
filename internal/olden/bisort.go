package olden

import (
	"repro/internal/core"
	"repro/internal/ir"
)

// bisort sorts values held in a binary tree with a bitonic merge that
// repeatedly *swaps subtrees* based on comparisons.  The traversal
// order therefore changes from phase to phase, and "any jump-pointer
// prefetches become purely overhead" (§4.2): software/cooperative JPP
// slow the program down, while hardware JPP is merely useless (its
// jump-pointers go stale before a second traversal can profit).
//
// Node layout: value(0) left(4) right(8) = 12 -> class 16, jump at 12.
const (
	bsValue = 0
	bsLeft  = 4
	bsRight = 8
	bsJump  = 12
)

const (
	bbBuild = ir.FirstUserSite + iota*10
	bbWalk
	bbSwap
	bbIdiom
	bbQueue
)

func init() {
	register(&Benchmark{
		Name:        "bisort",
		Description: "bitonic sort over a binary tree with subtree swaps",
		Structures:  "binary tree, extremely volatile (subtree swaps)",
		Behavior:    "traversal order changes every merge phase",
		Idioms:      []core.Idiom{core.IdiomQueue},
		Traversals:  2,
		Kernel:      bisortKernel,
	})
}

func bisortSizes(s Size) (depth, phases int) {
	switch s {
	case SizeTest:
		return 5, 2
	case SizeSmall:
		return 11, 3
	case SizeLarge:
		return 15, 4 // 32K nodes x 16B = 512KB, L2-sized
	default:
		return 13, 4 // 8K nodes x 16B = 128KB
	}
}

func bisortKernel(p Params) func(*ir.Asm) {
	depth, phases := bisortSizes(p.Size)
	idiom := p.SWIdiom(core.IdiomQueue)
	coop := p.Coop()

	return func(a *ir.Asm) {
		r := NewRNG(0xbf58476d)

		var build func(d int) ir.Val
		build = func(d int) ir.Val {
			n := a.Malloc(12)
			a.Store(bbBuild, n, bsValue, ir.Imm(r.Next()%100000))
			if d > 1 {
				l := build(d - 1)
				rt := build(d - 1)
				a.Store(bbBuild+1, n, bsLeft, l)
				a.Store(bbBuild+2, n, bsRight, rt)
			}
			return n
		}
		root := build(depth)

		var queue *core.SWJumpQueue
		if idiom == core.IdiomQueue {
			queue = core.NewSWJumpQueue(a, bbQueue, 0, p.EffectiveInterval(), bsJump)
		}

		// bimerge walks the tree, swapping children when values compare
		// against the phase direction, then recurses.
		var bimerge func(n ir.Val, dir bool) ir.Val
		bimerge = func(n ir.Val, dir bool) ir.Val {
			if idiom == core.IdiomQueue {
				if coop && p.PrefetchOn() {
					a.Prefetch(bbIdiom, n, bsJump, ir.FJumpChase)
				} else if p.PrefetchOn() {
					a.Overhead(func() {
						j := a.Load(bbIdiom, n, bsJump, 0)
						a.Prefetch(bbIdiom+1, j, 0, 0)
					})
				}
				queue.Visit(n)
			}
			v := a.Load(bbWalk, n, bsValue, ir.FLDS)
			l := a.Load(bbWalk+1, n, bsLeft, ir.FLDS)
			rt := a.Load(bbWalk+2, n, bsRight, ir.FLDS)
			a.Branch(bbWalk+3, l.IsNil(), bbWalk+7, l, ir.Val{})
			if l.IsNil() {
				a.Ret(bbIdiom + 2)
				return v
			}
			lv := a.Load(bbSwap, l, bsValue, ir.FLDS)
			rv := a.Load(bbSwap+1, rt, bsValue, ir.FLDS)
			swap := (lv.U32() > rv.U32()) == dir
			a.Branch(bbSwap+2, swap, bbSwap+3, lv, rv)
			if swap {
				// The structural mutation that invalidates jump-pointers.
				a.Store(bbSwap+3, n, bsLeft, rt)
				a.Store(bbSwap+4, n, bsRight, l)
				l, rt = rt, l
			}
			a.Push(bbWalk+4, rt)
			a.Call(bbWalk+5, bbWalk)
			ls := bimerge(l, dir)
			rt = a.Pop(bbWalk + 6)
			a.Call(bbWalk+7, bbWalk)
			rs := bimerge(rt, !dir)
			out := a.Alu(bbIdiom+3, ls.U32()+rs.U32()+v.U32(), ls, rs)
			a.Ret(bbIdiom + 4)
			return out
		}

		for ph := 0; ph < phases; ph++ {
			s := bimerge(root, ph%2 == 0)
			a.StoreGlobal(bbIdiom+5, 0x100, s)
		}
	}
}
