package olden

import (
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/ir"
)

// em3d models electromagnetic wave propagation on a bipartite graph of
// E-field and H-field nodes.  compute_nodes walks each side's node list
// (the backbone) and, for every node, gathers values through an array
// of pointers to nodes of the other side (the ribs), scaling them by a
// coefficient array.
//
// The paper's characterization: backbone-and-ribs; the rib loads access
// pointer arrays stored at every node, which makes explicit software
// full jumping costly (one jump-pointer per array slot), so the best
// software solution is queue jumping on the backbone, letting hardware
// chain-prefetch the arrays in the cooperative scheme (§4.1).  With ~100
// traversals in the original, hardware JPP beats software here (§4.2).
//
// Node layout (emK = 4 from-pointers):
//
//	value(0) next(4) count(8) coeff[6](12..32) from[6](36..56)
//	= payload 60 -> class 64; the jump slot is the padding word at 60
const (
	emValue = 0
	emNext  = 4
	emCoeff = 12
	emFrom  = 36
	emJump  = 60

	emK = 6
)

const (
	esBuild = ir.FirstUserSite + iota*12
	esWalk
	esGather
	esIdiom
	// esQueue spans core.SWJumpQueueSitesFor(emK) sites (full jumping
	// passes emK extra rib stores); it is the last block, so exceeding
	// the 12-site stride is safe.
	esQueue
)

func init() {
	Register(FamilyOlden, &Benchmark{
		Name:        "em3d",
		Description: "electromagnetic wave propagation on a bipartite graph",
		Structures:  "two linked node lists + per-node pointer arrays (backbone-and-ribs)",
		Behavior:    "static structure, traversed ~100 times",
		Idioms:      []core.Idiom{core.IdiomQueue, core.IdiomFull},
		Traversals:  100,
		Kernel:      em3dKernel,
	})
}

type em3dCfg struct {
	nodes int // per side
	iters int
}

func em3dSizes(s Size) em3dCfg {
	switch s {
	case SizeTest:
		return em3dCfg{nodes: 24, iters: 2}
	case SizeSmall:
		return em3dCfg{nodes: 400, iters: 4}
	case SizeLarge:
		// 2 x 5000 nodes x 64B = ~640KB: past the L2, so the backbone
		// chase misses to memory every iteration.
		return em3dCfg{nodes: 5000, iters: 10}
	default:
		// 2 x 1600 nodes x 64B = ~200KB: >> L1, L2-resident; the fat
		// per-node gather loop keeps the 64-entry window from hiding
		// the backbone chain on its own.
		return em3dCfg{nodes: 1600, iters: 10}
	}
}

func em3dKernel(p Params) func(*ir.Asm) {
	cfg := em3dSizes(p.Size)
	idiom := p.SWIdiom(core.IdiomQueue)
	coop := p.Coop()
	// Full jumping needs a jump slot per from-pointer beyond the block's
	// padding, doubling the block class — the footprint cost the paper
	// measures as a distinct-block increase on em3d (§3.1).
	nodeBytes := uint32(60)
	if idiom == core.IdiomFull {
		nodeBytes = 64 + 4*emK
	}

	return func(a *ir.Asm) {
		r := NewRNG(0x517cc1b7)

		// ---- build both sides ----
		buildSide := func(arena heap.ArenaID) []ir.Val {
			nodes := make([]ir.Val, cfg.nodes)
			for i := range nodes {
				nodes[i] = a.MallocIn(arena, nodeBytes)
				a.Store(esBuild, nodes[i], emValue, ir.Imm(r.Next()%1000))
			}
			for i := 0; i+1 < len(nodes); i++ {
				a.Store(esBuild+1, nodes[i], emNext, nodes[i+1])
			}
			return nodes
		}
		eArena, hArena := a.Heap().NewArena(), a.Heap().NewArena()
		eNodes := buildSide(eArena)
		hNodes := buildSide(hArena)
		link := func(from, to []ir.Val) {
			for _, n := range from {
				for k := 0; k < emK; k++ {
					t := to[r.Intn(len(to))]
					a.Store(esBuild+2, n, uint32(emFrom+4*k), t)
					a.Store(esBuild+3, n, uint32(emCoeff+4*k), ir.Imm(r.Next()%100))
				}
			}
		}
		link(eNodes, hNodes)
		link(hNodes, eNodes)

		var queue *core.SWJumpQueue
		if idiom == core.IdiomQueue || idiom == core.IdiomFull {
			queue = core.NewSWJumpQueue(a, esQueue, 0, p.EffectiveInterval(), emJump)
		}

		// ---- compute_nodes over one side ----
		// ribs carries one node's rib jump-pointer stores to
		// queue.Visit, which does not retain it, so every node reuses
		// the one buffer.
		ribs := make([]core.FieldStore, 0, emK)
		computeSide := func(head ir.Val, n int) {
			node := head
			for i := 0; i < n; i++ {
				// Prefetching idiom at loop top.
				switch idiom {
				case core.IdiomQueue:
					if p.PrefetchOn() {
						j := core.JumpPrefetch(a, esIdiom, node, emJump, coop)
						if !coop {
							// The node spans two lines: software also
							// prefetches the second.
							a.Prefetch(esIdiom+6, j, 32, 0)
						}
					}
				case core.IdiomFull:
					if p.PrefetchOn() {
						core.JumpPrefetch(a, esIdiom, node, emJump, coop)
						// Rib jump pointers: the cooperative and
						// software forms sit at different sites.
						rib := esIdiom + 3
						if coop {
							rib = esIdiom + 2
						}
						for k := 0; k < emK; k++ {
							core.JumpPrefetch(a, rib, node, uint32(64+4*k), coop)
						}
					}
				}

				// value = sum_k coeff[k] * from[k]->value
				acc := a.Load(esWalk, node, emValue, ir.FLDS)
				for k := 0; k < emK; k++ {
					from := a.Load(esGather, node, uint32(emFrom+4*k), ir.FLDS)
					fv := a.Load(esGather+1, from, emValue, ir.FLDS)
					cf := a.Load(esGather+2, node, uint32(emCoeff+4*k), ir.FLDS)
					m := a.Op(esGather+3, ir.FpMult, fv.U32()^cf.U32(), fv, cf)
					acc = a.Op(esGather+4, ir.FpAdd, acc.U32()-m.U32(), acc, m)
				}
				a.Store(esWalk+1, node, emValue, acc)

				ribs = ribs[:0]
				if queue != nil && idiom == core.IdiomFull {
					// Install jump-pointers for every from-pointer of
					// this node alongside the backbone pointer.
					for k := 0; k < emK; k++ {
						fr := a.Load(esIdiom+5, node, uint32(emFrom+4*k), ir.FLDS)
						ribs = append(ribs, core.FieldStore{Off: uint32(64 + 4*k), Val: fr})
					}
				}
				if queue != nil {
					queue.Visit(node, ribs...)
				}

				nxt := a.Load(esWalk+2, node, emNext, ir.FLDS)
				a.Branch(esWalk+3, i+1 < n, esWalk, nxt, ir.Val{})
				node = nxt
			}
		}

		for it := 0; it < cfg.iters; it++ {
			computeSide(eNodes[0], len(eNodes))
			computeSide(hNodes[0], len(hNodes))
		}
	}
}
