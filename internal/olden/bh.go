package olden

import (
	"repro/internal/core"
	"repro/internal/ir"
)

// bh is a Barnes-Hut N-body force solver: bodies live on a linked list
// (a queue-jumpable backbone), but the dominant work is the per-body
// force walk over an octree whose descent is data dependent (the cell
// opening criterion), which jump-pointers cannot anticipate.  Table 1
// classifies bh as backbone-only/queue jumping; §4.2 groups it with the
// programs whose structure limits what any prefetching can do.
//
// Cell layout: mass(0) pos(4) child0..7(8..36) = 40 -> class 64.
// Body layout: mass(0) pos(4) vel(8) acc(12) next(16) = 20 -> class 32.
const (
	bhMass  = 0
	bhPos   = 4
	bhChild = 8

	bhBPos  = 4
	bhBNext = 16
	bhBJump = 20
)

const (
	bhBuild = ir.FirstUserSite + iota*10
	bhLoop
	bhForce
	bhIdiom
	bhQueue
)

func init() {
	Register(FamilyOlden, &Benchmark{
		Name:        "bh",
		Description: "Barnes-Hut N-body force computation",
		Structures:  "body list (backbone) + octree with data-dependent descent",
		Behavior:    "force walks prune unpredictably; list is queue-jumpable",
		Idioms:      []core.Idiom{core.IdiomQueue},
		Traversals:  2,
		Kernel:      bhKernel,
	})
}

type bhCfg struct {
	bodies int
	depth  int
	steps  int
}

func bhSizes(s Size) bhCfg {
	switch s {
	case SizeTest:
		return bhCfg{bodies: 16, depth: 2, steps: 1}
	case SizeSmall:
		return bhCfg{bodies: 256, depth: 4, steps: 1}
	case SizeLarge:
		// ~4x the full tree: ~19K cells x 64B = ~1.2MB, past the L2.
		return bhCfg{bodies: 5600, depth: 6, steps: 2}
	default:
		// ~4.7K cells x 64B = 300KB tree + 1.4K bodies x 32B.
		return bhCfg{bodies: 1400, depth: 5, steps: 2}
	}
}

func bhKernel(p Params) func(*ir.Asm) {
	cfg := bhSizes(p.Size)
	idiom := p.SWIdiom(core.IdiomQueue)
	coop := p.Coop()

	return func(a *ir.Asm) {
		r := NewRNG(0xda3e39cb)

		// ---- bodies on a linked list ----
		bodies := make([]ir.Val, cfg.bodies)
		for i := range bodies {
			bodies[i] = a.Malloc(20)
			a.Store(bhBuild, bodies[i], bhMass, ir.Imm(r.Next()%100+1))
			a.Store(bhBuild+1, bodies[i], bhBPos, ir.Imm(r.Next()%4096))
		}
		for i := 0; i+1 < len(bodies); i++ {
			a.Store(bhBuild+2, bodies[i], bhBNext, bodies[i+1])
		}

		// ---- octree (random occupancy, depth-limited) ----
		var buildCell func(d int) ir.Val
		buildCell = func(d int) ir.Val {
			c := a.Malloc(40)
			a.Store(bhBuild+3, c, bhMass, ir.Imm(r.Next()%1000+1))
			a.Store(bhBuild+4, c, bhPos, ir.Imm(r.Next()%4096))
			if d > 0 {
				for q := 0; q < 8; q++ {
					if r.Intn(3) != 0 { // sparse occupancy
						continue
					}
					ch := buildCell(d - 1)
					a.Store(bhBuild+5, c, uint32(bhChild+4*q), ch)
				}
			}
			return c
		}
		tree := buildCell(cfg.depth)

		var queue *core.SWJumpQueue
		if idiom == core.IdiomQueue {
			queue = core.NewSWJumpQueue(a, bhQueue, 0, p.EffectiveInterval(), bhBJump)
		}

		// Force walk: descend while the opening criterion (distance vs
		// cell size, here data-dependent arithmetic) demands it.
		var gravSub func(body, cell ir.Val, bp uint32, d int) ir.Val
		gravSub = func(body, cell ir.Val, bp uint32, d int) ir.Val {
			m := a.Load(bhForce, cell, bhMass, ir.FLDS)
			cp := a.Load(bhForce+1, cell, bhPos, ir.FLDS)
			dx := a.Alu(bhForce+2, cp.U32()-bp, cp, ir.Val{})
			open := d > 0 && (dx.U32()%7 < 3)
			a.Branch(bhForce+3, open, bhForce+5, dx, m)
			if !open {
				// Treat the cell as a point mass.
				f := a.Op(bhForce+4, ir.FpMult, m.U32()^dx.U32(), m, dx)
				a.Ret(bhIdiom + 2)
				return f
			}
			acc := ir.Val{}
			for q := 0; q < 8; q++ {
				ch := a.Load(bhForce+5, cell, uint32(bhChild+4*q), ir.FLDS)
				if ch.IsNil() {
					continue
				}
				a.Push(bhForce+6, acc)
				a.Call(bhForce+7, bhForce)
				f := gravSub(body, ch, bp, d-1)
				acc = a.Pop(bhForce + 8)
				acc = a.Op(bhIdiom+3, ir.FpAdd, acc.U32()+f.U32(), acc, f)
			}
			a.Ret(bhIdiom + 4)
			return acc
		}

		for step := 0; step < cfg.steps; step++ {
			body := bodies[0]
			for i := range bodies {
				if idiom == core.IdiomQueue {
					if p.PrefetchOn() {
						core.JumpPrefetch(a, bhIdiom, body, bhBJump, coop)
					}
					queue.Visit(body)
				}
				bp := a.Load(bhLoop, body, bhBPos, ir.FLDS)
				f := gravSub(body, tree, bp.U32(), cfg.depth)
				a.Store(bhLoop+1, body, 12, f)
				nx := a.Load(bhLoop+2, body, bhBNext, ir.FLDS)
				a.Branch(bhLoop+3, i+1 < len(bodies), bhLoop, nx, ir.Val{})
				if nx.IsNil() {
					break
				}
				body = nx
			}
		}
	}
}
