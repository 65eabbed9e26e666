package kernels

import (
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/olden"
)

// multilist models the lockstep multi-list walk of SNIPPETS.md snippet
// 1 (grappa's list-chase kernel): 8 independent linked lists, walked in
// phases that chase 1, 2, 4, then 8 lists in software-pipelined
// lockstep.  Each phase's inner loop issues one independent pointer
// load per active list, so memory-level parallelism scales with the
// chase count while each individual chain stays serialized; the phases
// show how much of the jump-pointer win the baseline can recover by
// overlapping chains.  Node order within each list is a random
// permutation of the allocation order, so next-line and stride
// prefetchers get no help.
//
// Layout (payload bytes; blocks round to power-of-two classes):
//
//	node: val(0) next(4) aux(8) [jump(12)] = 12 -> 16
const (
	mlVal  = 0
	mlNext = 4
	mlJump = 12

	mlLists = 8
)

// Static sites for multilist.
const (
	mlBuild = ir.FirstUserSite + iota*8
	mlWalk
	mlSum
	mlIdiom
	mlQueue // SWJumpQueueSites
)

func init() {
	olden.Register(olden.FamilyKernels, &olden.Benchmark{
		Name:        "multilist",
		Description: "lockstep walks over 1-8 parallel linked lists",
		Structures:  "8 permutation-shuffled singly-linked lists",
		Behavior:    "software-pipelined chases: MLP scales with list count",
		Idioms:      []core.Idiom{core.IdiomQueue},
		Traversals:  12,
		Extension:   true,
		Kernel:      multilistKernel,
	})
}

type multilistCfg struct {
	nodes int // per list
	iters int // rounds over the 1/2/4/8 phase ladder
}

func multilistSizes(s olden.Size) multilistCfg {
	switch s {
	case olden.SizeTest:
		return multilistCfg{nodes: 24, iters: 1}
	case olden.SizeSmall:
		return multilistCfg{nodes: 512, iters: 2}
	case olden.SizeLarge:
		// 8 x 10K x 16B = ~1.3MB of nodes: well past the L2.
		return multilistCfg{nodes: 10000, iters: 3}
	default:
		// 8 x 4K x 16B = 512KB of nodes: far beyond the L1, filling
		// the L2, so every chase hop misses at least the L1.
		return multilistCfg{nodes: 4000, iters: 3}
	}
}

func multilistKernel(p olden.Params) func(*ir.Asm) {
	cfg := multilistSizes(p.Size)
	idiom := p.SWIdiom(core.IdiomQueue)
	isCoop := p.Coop()

	return func(a *ir.Asm) {
		r := olden.NewRNG(0x165667b1)

		var queue *core.SWJumpQueue
		if idiom == core.IdiomQueue {
			queue = core.NewSWJumpQueue(a, mlQueue, 0, p.EffectiveInterval(), mlJump)
		}

		// Build: allocate each list's nodes in one arena, then link
		// them in Fisher-Yates-permuted order so list order and memory
		// order are uncorrelated.
		heads := make([]ir.Val, mlLists)
		for li := 0; li < mlLists; li++ {
			ar := a.Heap().NewArena()
			nodes := make([]ir.Val, cfg.nodes)
			for i := range nodes {
				nodes[i] = a.MallocIn(ar, 12)
				a.Store(mlBuild, nodes[i], mlVal, ir.Imm(r.Next()&0xFFFF))
			}
			perm := make([]int, cfg.nodes)
			for i := range perm {
				perm[i] = i
			}
			for i := len(perm) - 1; i > 0; i-- {
				j := r.Intn(i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
			for i := 0; i+1 < len(perm); i++ {
				a.Store(mlBuild+1, nodes[perm[i]], mlNext, nodes[perm[i+1]])
			}
			heads[li] = nodes[perm[0]]
		}

		// walk chases the first k lists in lockstep: one value load,
		// one accumulate and one pointer load per active list per step,
		// k independent chains in flight.  The jump queue sees the
		// merged round-robin visit stream, so its pointers target the
		// node the stream reaches `interval` visits later — the
		// interleave-aware order, not any single chain.
		walk := func(k int) {
			cur := make([]ir.Val, k)
			sum := make([]ir.Val, k)
			for j := 0; j < k; j++ {
				cur[j] = heads[j]
				sum[j] = ir.Imm(0)
			}
			for step := 0; step < cfg.nodes; step++ {
				for j := 0; j < k; j++ {
					if p.PrefetchOn() && idiom == core.IdiomQueue {
						core.JumpPrefetch(a, mlIdiom, cur[j], mlJump, isCoop)
					}
					v := a.Load(mlWalk, cur[j], mlVal, ir.FLDS)
					sum[j] = a.Alu(mlWalk+1, sum[j].U32()+v.U32(), sum[j], v)
					if queue != nil {
						queue.Visit(cur[j])
					}
					cur[j] = a.Load(mlWalk+2, cur[j], mlNext, ir.FLDS)
				}
				a.Branch(mlWalk+3, step+1 < cfg.nodes, mlWalk, cur[0], ir.Val{})
			}
			for j := 0; j < k; j++ {
				acc := a.LoadGlobal(mlSum, accBase+uint32(4*j))
				a.StoreGlobal(mlSum+1, accBase+uint32(4*j),
					a.Alu(mlSum+2, acc.U32()+sum[j].U32(), acc, sum[j]))
			}
		}

		for it := 0; it < cfg.iters; it++ {
			for _, k := range []int{1, 2, 4, 8} {
				walk(k)
				// Pointers from one interleave are meaningless in the
				// next phase's visit order; clear between phases.
				if queue != nil {
					queue.Reset()
				}
			}
		}
	}
}
