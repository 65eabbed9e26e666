package olden

import (
	"repro/internal/core"
	"repro/internal/ir"
)

// btree is an extension workload (paper §6: "jump-pointer prefetching
// may be generalized to other classes of data structures with
// serialized access idioms, like ... database trees").
//
// It models a B+-tree index: fixed-fanout inner nodes, and leaves
// threaded on a linked list.  The workload interleaves point lookups
// (root-to-leaf descents, data dependent and hard to prefetch — like
// bh's tree walks) with range scans along the leaf chain (a serialized
// backbone that queue jumping prefetches well).  Jump-pointers are
// installed in the leaf-level list only, exactly where the serialized
// access idiom lives.
//
// Leaf layout:   key0..3(0..12) val0..3(16..28) next(32) count(36)
//
//	[jump(40)] = 40 -> class 64
//
// Inner layout:  key0..3(0..12) child0..4(16..32) count(36) = 40 -> 64
const (
	btKeys  = 0
	btVals  = 16
	btNext  = 32
	btCount = 36
	btJump  = 40

	btChild  = 16
	btFanout = 4
)

const (
	btBuild = ir.FirstUserSite + iota*10
	btFind
	btScan
	btIdiom
	btQueue
)

func init() {
	Register(FamilyOlden, &Benchmark{
		Name:        "btree",
		Description: "B+-tree index: point lookups + leaf-chain range scans (extension)",
		Structures:  "fixed-fanout search tree over a linked leaf level",
		Behavior:    "descents are data dependent; scans serialize on the leaf chain",
		Idioms:      []core.Idiom{core.IdiomQueue},
		Traversals:  20,
		Extension:   true,
		Kernel:      btreeKernel,
	})
}

type btreeCfg struct {
	keys   int
	scans  int
	scanLn int
	points int
}

func btreeSizes(s Size) btreeCfg {
	switch s {
	case SizeTest:
		return btreeCfg{keys: 64, scans: 2, scanLn: 8, points: 8}
	case SizeSmall:
		return btreeCfg{keys: 2 << 10, scans: 16, scanLn: 64, points: 128}
	case SizeLarge:
		// ~3x the full index (~1.1MB), twice the L2.
		return btreeCfg{keys: 36 << 10, scans: 192, scanLn: 768, points: 768}
	default:
		// ~4K leaves + splits x 64B + inner levels = ~380KB of index;
		// scans dominate the instruction mix, as in analytic range
		// queries.
		return btreeCfg{keys: 12 << 10, scans: 128, scanLn: 512, points: 512}
	}
}

func btreeKernel(p Params) func(*ir.Asm) {
	cfg := btreeSizes(p.Size)
	idiom := p.SWIdiom(core.IdiomQueue)
	coop := p.Coop()

	return func(a *ir.Asm) {
		r := NewRNG(0x6c62272e)

		// ---- bulk build: sorted keys packed into leaves, inner levels
		// built bottom-up (the classic bulk-load) ----
		keys := make([]uint32, cfg.keys)
		for i := range keys {
			keys[i] = uint32(i*7 + 3)
		}
		var leaves []ir.Val
		leafArena := a.Heap().NewArena()
		for i := 0; i < len(keys); i += btFanout {
			leaf := a.MallocIn(leafArena, 40)
			n := 0
			for j := i; j < i+btFanout && j < len(keys); j++ {
				a.Store(btBuild, leaf, uint32(btKeys+4*n), ir.Imm(keys[j]))
				a.Store(btBuild+1, leaf, uint32(btVals+4*n), ir.Imm(keys[j]*2))
				n++
			}
			a.Store(btBuild+2, leaf, btCount, ir.Imm(uint32(n)))
			if len(leaves) > 0 {
				a.Store(btBuild+3, leaves[len(leaves)-1], btNext, leaf)
			}
			leaves = append(leaves, leaf)
		}

		type innerRef struct {
			node ir.Val
			min  uint32
		}
		level := make([]innerRef, len(leaves))
		for i, l := range leaves {
			level[i] = innerRef{node: l, min: keys[i*btFanout]}
		}
		innerArena := a.Heap().NewArena()
		height := 0
		for len(level) > 1 {
			height++
			var up []innerRef
			for i := 0; i < len(level); i += btFanout + 1 {
				node := a.MallocIn(innerArena, 40)
				n := 0
				for j := i; j < i+btFanout+1 && j < len(level); j++ {
					a.Store(btBuild+4, node, uint32(btChild+4*n), level[j].node)
					if n > 0 {
						a.Store(btBuild+5, node, uint32(btKeys+4*(n-1)), ir.Imm(level[j].min))
					}
					n++
				}
				a.Store(btBuild+6, node, btCount, ir.Imm(uint32(n)))
				up = append(up, innerRef{node: node, min: level[i].min})
			}
			level = up
		}
		root := level[0].node

		// ---- insert churn: split a third of the leaves.  Splits move
		// half a leaf's keys into a freshly allocated block and relink
		// the chain, scattering it in memory — the steady state of a
		// live index, and the reason leaf scans chase pointers.
		splitArena := a.Heap().NewArena()
		for s := 0; s < len(leaves)/3; s++ {
			i := r.Intn(len(leaves))
			old := leaves[i]
			nw := a.MallocIn(splitArena, 40)
			// Move the upper half of the keys.
			for k := 0; k < btFanout/2; k++ {
				kv := a.Load(btBuild+7, old, uint32(btKeys+4*(btFanout/2+k)), ir.FLDS)
				a.Store(btBuild+8, nw, uint32(btKeys+4*k), kv)
				vv := a.Load(btBuild+9, old, uint32(btVals+4*(btFanout/2+k)), ir.FLDS)
				a.Store(btBuild+2, nw, uint32(btVals+4*k), vv)
			}
			a.Store(btBuild+2, old, btCount, ir.Imm(btFanout/2))
			a.Store(btBuild+2, nw, btCount, ir.Imm(btFanout/2))
			nx := a.Load(btBuild+7, old, btNext, ir.FLDS)
			a.Store(btBuild+3, nw, btNext, nx)
			a.Store(btBuild+3, old, btNext, nw)
			leaves = append(leaves, nw)
		}

		var queue *core.SWJumpQueue
		if idiom == core.IdiomQueue {
			queue = core.NewSWJumpQueue(a, btQueue, 0, p.EffectiveInterval(), btJump)
		}

		// descend runs a root-to-leaf point lookup.
		descend := func(key uint32) ir.Val {
			n := root
			for d := 0; d < height; d++ {
				cnt := a.Load(btFind, n, btCount, ir.FLDS)
				slot := 0
				for s := 0; s < int(cnt.U32())-1; s++ {
					k := a.Load(btFind+1, n, uint32(btKeys+4*s), ir.FLDS)
					go_ := key >= k.U32()
					a.Branch(btFind+2, !go_, btFind+3, k, ir.Imm(key))
					if !go_ {
						break
					}
					slot = s + 1
				}
				n = a.Load(btFind+3, n, uint32(btChild+4*slot), ir.FLDS)
			}
			return n
		}

		// rangeScan walks the leaf chain from a starting leaf.
		rangeScan := func(start ir.Val, leavesToScan int) {
			leaf := start
			for i := 0; i < leavesToScan && !leaf.IsNil(); i++ {
				if idiom == core.IdiomQueue {
					if p.PrefetchOn() {
						core.JumpPrefetch(a, btIdiom, leaf, btJump, coop)
					}
					queue.Visit(leaf)
				}
				cnt := a.Load(btScan, leaf, btCount, ir.FLDS)
				acc := ir.Val{}
				for s := 0; s < int(cnt.U32()); s++ {
					v := a.Load(btScan+1, leaf, uint32(btVals+4*s), ir.FLDS)
					acc = a.Alu(btScan+2, acc.U32()+v.U32(), acc, v)
				}
				a.StoreGlobal(btScan+3, 0x100, acc)
				nxt := a.Load(btScan+4, leaf, btNext, ir.FLDS)
				a.Branch(btScan+5, i+1 < leavesToScan, btScan, nxt, ir.Val{})
				leaf = nxt
			}
		}

		// ---- the workload: interleaved lookups and scans ----
		// Scan starts are skewed toward a handful of hot ranges, as in
		// real index traffic; rescans of a hot range find the jump
		// pointers installed by the previous scan over it.
		hot := make([]int, 8)
		for i := range hot {
			hot[i] = r.Intn(len(leaves))
		}
		for s := 0; s < cfg.scans; s++ {
			for q := 0; q < cfg.points/cfg.scans; q++ {
				descend(keys[r.Intn(len(keys))])
			}
			var startIdx int
			if r.Intn(4) != 0 {
				startIdx = hot[r.Intn(len(hot))]
			} else {
				startIdx = r.Intn(len(leaves))
			}
			if queue != nil {
				// A fresh queue per scan: jump pointers never cross scan
				// boundaries into unrelated leaves.
				queue.Reset()
			}
			rangeScan(leaves[startIdx], cfg.scanLn/btFanout)
		}
	}
}
