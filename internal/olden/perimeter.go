package olden

import (
	"repro/internal/core"
	"repro/internal/ir"
)

// perimeter computes the perimeter of a region stored as a quadtree.
// A backbone-only structure (Table 1: queue jumping), built once and
// traversed once — which is why hardware JPP, needing a first traversal
// to install jump-pointers, is useless on it (§4.2), while software
// queue jumping installed during the build pays off in the single
// traversal.
//
// Node layout: color(0) child0..3(4,8,12,16) = 20 -> class 32,
// jump slot at 20 (padding).
const (
	pqColor = 0
	pqChild = 4
	pqJump  = 20
)

const (
	psBuild = ir.FirstUserSite + iota*10
	psWalk
	psIdiom
	psQueue
)

func init() {
	register(&Benchmark{
		Name:        "perimeter",
		Description: "perimeter of a quadtree-encoded image region",
		Structures:  "quadtree (backbone only)",
		Behavior:    "built once, traversed once",
		Idioms:      []core.Idiom{core.IdiomQueue},
		Traversals:  1,
		Kernel:      perimeterKernel,
	})
}

func perimeterSizes(s Size) (depth int) {
	switch s {
	case SizeTest:
		return 3
	case SizeSmall:
		return 6
	case SizeLarge:
		return 10 // ~4x the full quadtree, ~1.5MB of nodes
	default:
		return 8 // ~10-20K nodes x 32B
	}
}

func perimeterKernel(p Params) func(*ir.Asm) {
	depth := perimeterSizes(p.Size)
	idiom := p.SWIdiom(core.IdiomQueue)
	coop := p.Coop()

	return func(a *ir.Asm) {
		r := NewRNG(0x94d049bb)

		var queue *core.SWJumpQueue
		if idiom == core.IdiomQueue {
			queue = core.NewSWJumpQueue(a, psQueue, 0, p.EffectiveInterval(), pqJump)
		}

		// ---- build: random image, grey nodes subdivide ----
		var build func(d int) ir.Val
		build = func(d int) ir.Val {
			n := a.Malloc(20)
			// Jump-pointer creation runs during the build for a
			// one-pass program ("jump-pointers must be installed as the
			// LDS itself is built", §4.2) — a task suited to software.
			if queue != nil {
				queue.Visit(n)
			}
			// Upper levels always subdivide (a realistic image is not a
			// single pixel); deeper regions go uniform at random.
			if d == 0 || (d <= depth-3 && r.Intn(4) == 0) {
				// Leaf: black or white.
				a.Store(psBuild, n, pqColor, ir.Imm(uint32(1+r.Intn(2))))
				return n
			}
			a.Store(psBuild+1, n, pqColor, ir.Imm(0)) // grey
			for q := 0; q < 4; q++ {
				c := build(d - 1)
				a.Store(psBuild+2, n, uint32(pqChild+4*q), c)
			}
			return n
		}
		root := build(depth)

		// ---- single traversal: sum leaf edge contributions ----
		var walk func(n ir.Val) ir.Val
		walk = func(n ir.Val) ir.Val {
			if idiom == core.IdiomQueue {
				if coop && p.PrefetchOn() {
					a.Prefetch(psIdiom, n, pqJump, ir.FJumpChase)
				} else if p.PrefetchOn() {
					a.Overhead(func() {
						j := a.Load(psIdiom, n, pqJump, 0)
						a.Prefetch(psIdiom+1, j, 0, 0)
					})
				}
			}
			color := a.Load(psWalk, n, pqColor, ir.FLDS)
			grey := color.U32() == 0
			a.Branch(psWalk+1, !grey, psWalk+6, color, ir.Val{})
			if !grey {
				// Leaf contribution: neighbour tests approximated by a
				// few arithmetic ops.
				e1 := a.Alu(psWalk+6, color.U32()*4, color, ir.Val{})
				e2 := a.Alu(psWalk+7, e1.U32()+1, e1, ir.Val{})
				a.Ret(psIdiom + 2)
				return e2
			}
			sum := ir.Val{}
			for q := 0; q < 4; q++ {
				c := a.Load(psWalk+2, n, uint32(pqChild+4*q), ir.FLDS)
				a.Push(psWalk+3, sum)
				a.Call(psWalk+4, psWalk)
				s := walk(c)
				sum = a.Pop(psWalk + 5)
				sum = a.Alu(psIdiom+3, sum.U32()+s.U32(), sum, s)
			}
			a.Ret(psIdiom + 4)
			return sum
		}
		total := walk(root)
		a.StoreGlobal(psIdiom+5, 0x100, total)
	}
}
