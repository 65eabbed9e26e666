package olden

import (
	"repro/internal/core"
	"repro/internal/ir"
)

// mst computes a minimum spanning tree with Bentley's algorithm: each
// vertex keeps a hash table of edge weights to every other vertex, and
// the main loop repeatedly looks up distances in those tables.  The
// tables' short bucket chains (a handful of nodes each) are "ideal for
// a root jumping implementation" (§4.1): while one chain is scanned,
// the next lookup's bucket root — whose address is computable from the
// next vertex — is prefetched and chased.
//
// The whole computation makes effectively one pass over each table, so
// hardware JPP (which spends the first traversal installing
// jump-pointers) is useless here, exactly as in §4.2.
//
// Hash entry layout: key(0) weight(4) next(8) = 12 -> class 16.
const (
	meKey    = 0
	meWeight = 4
	meNext   = 8
)

const (
	msBuild = ir.FirstUserSite + iota*10
	msOuter
	msLookup
	msIdiom
	msQueue
)

func init() {
	Register(FamilyOlden, &Benchmark{
		Name:        "mst",
		Description: "minimum spanning tree over hash-table adjacency (Bentley)",
		Structures:  "per-vertex hash tables with short bucket chains",
		Behavior:    "each chain effectively scanned once",
		Idioms:      []core.Idiom{core.IdiomRoot, core.IdiomQueue},
		Traversals:  1,
		Kernel:      mstKernel,
	})
}

type mstCfg struct {
	vertices int
	buckets  int // per table; chains average vertices/buckets nodes
}

func mstSizes(s Size) mstCfg {
	switch s {
	case SizeTest:
		return mstCfg{vertices: 10, buckets: 4}
	case SizeSmall:
		return mstCfg{vertices: 64, buckets: 16}
	case SizeLarge:
		// 256 tables x ~256 entries x 16B = ~1MB of hash chains.
		return mstCfg{vertices: 256, buckets: 64}
	default:
		// 160 vertices -> 160 tables x ~160 entries x 16B = ~410KB of
		// chain nodes plus bucket arrays.  Like the original's
		// multi-megabyte tables, a sizable share of chain accesses
		// miss to memory, which is where root jumping pays off; the
		// ~2.5-node chains keep a full chase within the prefetch lead.
		return mstCfg{vertices: 160, buckets: 64}
	}
}

func mstHash(key, buckets int) int { return (key*31 + 17) % buckets }

func mstKernel(p Params) func(*ir.Asm) {
	cfg := mstSizes(p.Size)
	idiom := p.SWIdiom(core.IdiomRoot)
	coop := p.Coop()

	return func(a *ir.Asm) {
		r := NewRNG(0x2545f491)

		// ---- build: per-vertex hash tables of edge weights ----
		// Each vertex's table is a bucket-pointer array plus chain
		// nodes, allocated in its own arena (Olden locality domains).
		tables := make([]ir.Val, cfg.vertices)
		for v := range tables {
			ar := a.Heap().NewArena()
			tables[v] = a.MallocIn(ar, uint32(4*cfg.buckets))
			for u := 0; u < cfg.vertices; u++ {
				if u == v {
					continue
				}
				b := uint32(4 * mstHash(u, cfg.buckets))
				n := a.MallocIn(ar, 12)
				a.Store(msBuild, n, meKey, ir.Imm(uint32(u)))
				a.Store(msBuild+1, n, meWeight, ir.Imm(r.Next()%1000+1))
				head := a.Load(msBuild+2, tables[v], b, ir.FLDS)
				a.Store(msBuild+3, n, meNext, head)
				a.Store(msBuild+4, tables[v], b, n)
			}
		}

		// Queue jumping threads jump-pointers through chain nodes in
		// scan order; since every chain is effectively scanned once,
		// the pointers are installed after their only use — the honest
		// reason root jumping wins on mst (Figure 4).
		var queue *core.SWJumpQueue
		if idiom == core.IdiomQueue {
			queue = core.NewSWJumpQueue(a, msQueue, 0, p.EffectiveInterval(), 12)
		}

		// hashLookup scans table[v]'s chain for key, returning the
		// weight.  nextRoot, when valid, is the bucket address of the
		// following lookup for root jumping.
		hashLookup := func(v, key int, nextTable ir.Val, nextOff uint32) ir.Val {
			b := uint32(4 * mstHash(key, cfg.buckets))
			// The hash computation itself: multiply and modulo (the
			// divider), exactly the work the original burns per probe.
			hk := a.Op(msOuter+3, ir.IntMult, uint32(key*31+17), ir.Imm(uint32(key)), ir.Val{})
			hk = a.Op(msOuter+4, ir.IntDiv, b, hk, ir.Imm(uint32(cfg.buckets)))
			a.Alu(msOuter+5, b, hk, ir.Val{})

			var chainJ ir.Val
			if idiom == core.IdiomRoot && !nextTable.IsNil() && p.PrefetchOn() {
				chainJ = core.JumpPrefetch(a, msIdiom, nextTable, nextOff, coop)
			}

			n := a.Load(msLookup, tables[v], b, ir.FLDS)
			w := ir.Val{}
			for !n.IsNil() {
				// Root jumping: chase the next lookup's chain while this
				// one is scanned (paper Figure 2(e)).
				if idiom == core.IdiomRoot && !coop && !chainJ.IsNil() {
					a.Overhead(func() {
						a.Prefetch(msIdiom+2, chainJ, 0, 0)
						chainJ = a.Load(msIdiom+3, chainJ, meNext, 0)
					})
				}
				if idiom == core.IdiomQueue {
					if p.PrefetchOn() {
						core.JumpPrefetch(a, msIdiom+4, n, 12, coop)
					}
					queue.Visit(n)
				}
				k := a.Load(msLookup+1, n, meKey, ir.FLDS)
				hit := int(k.U32()) == key
				nx := a.Load(msLookup+2, n, meNext, ir.FLDS)
				a.Branch(msLookup+3, hit, msLookup+5, k, ir.Imm(uint32(key)))
				if hit {
					w = a.Load(msLookup+5, n, meWeight, ir.FLDS)
					a.Branch(msLookup+6, true, msOuter, w, ir.Val{})
					return w
				}
				a.Branch(msLookup+4, !nx.IsNil(), msLookup+1, nx, ir.Val{})
				n = nx
			}
			return w
		}

		// ---- Prim/Bentley main loop ----
		inTree := make([]bool, cfg.vertices)
		dist := make([]uint32, cfg.vertices)
		for i := range dist {
			dist[i] = ^uint32(0)
		}
		inTree[0] = true
		cur := 0
		for added := 1; added < cfg.vertices; added++ {
			// Relax: one hash lookup per remaining vertex, with the
			// following lookup's bucket root known in advance.
			remaining := make([]int, 0, cfg.vertices)
			for u := 0; u < cfg.vertices; u++ {
				if !inTree[u] {
					remaining = append(remaining, u)
				}
			}
			best, bestW := -1, ^uint32(0)
			for i, u := range remaining {
				// Root jumping three lookups ahead: the probe sequence
				// within a round is a program invariant (the remaining
				// list), the kind of knowledge section 3.1 says the mst
				// implementation exploits; the distance approximates a
				// full serial chain chase at memory latency.
				var nextTable ir.Val
				var nextOff uint32
				if i+3 < len(remaining) {
					nu := remaining[i+3]
					nextTable = tables[nu]
					nextOff = uint32(4 * mstHash(cur, cfg.buckets))
				}
				w := hashLookup(u, cur, nextTable, nextOff)
				wv := w.U32()
				if wv != 0 && wv < dist[u] {
					dist[u] = wv
				}
				a.Branch(msOuter, dist[u] < bestW, msOuter+2, w, ir.Val{})
				if dist[u] < bestW {
					best, bestW = u, dist[u]
				}
				a.Alu(msOuter+1, dist[u], w, ir.Val{})
			}
			if best < 0 {
				best = remaining[0]
			}
			inTree[best] = true
			cur = best
		}
	}
}
