package olden

import (
	"repro/internal/core"
	"repro/internal/ir"
)

// spmv is an extension workload (paper §6: "jump-pointer prefetching
// may be generalized to other classes of data structures with
// serialized access idioms, like sparse matrices ...").
//
// It computes y = A*x repeatedly over a sparse matrix stored in linked
// form: each row is a chain of element nodes (the representation of
// sparse codes that mutate their structure, e.g. fill-in during
// factorization).  Element-chain traversal is the serialized backbone;
// the x-vector gathers indexed by column are the ribs.  Queue jumping
// threads the element chains; the cooperative scheme lets the hardware
// chain the x gathers.
//
// Element layout: value(0) col(4) next(8) = 12 -> class 16, jump at 12.
const (
	svValue = 0
	svCol   = 4
	svNext  = 8
	svJump  = 12
)

const (
	svBuild = ir.FirstUserSite + iota*10
	svRow
	svElem
	svIdiom
	svQueue
)

func init() {
	Register(FamilyOlden, &Benchmark{
		Name:        "spmv",
		Description: "sparse matrix-vector product over linked element rows (extension)",
		Structures:  "per-row element chains + dense x/y vectors",
		Behavior:    "row chains serialize; x gathers are data dependent",
		Idioms:      []core.Idiom{core.IdiomQueue},
		Traversals:  12,
		Extension:   true,
		Kernel:      spmvKernel,
	})
}

type spmvCfg struct {
	rows, nnzPerRow, iters int
}

func spmvSizes(s Size) spmvCfg {
	switch s {
	case SizeTest:
		return spmvCfg{rows: 16, nnzPerRow: 4, iters: 2}
	case SizeSmall:
		return spmvCfg{rows: 512, nnzPerRow: 8, iters: 4}
	case SizeLarge:
		// 6K rows x 16 elements x 16B = ~1.5MB of element chains.
		return spmvCfg{rows: 6 << 10, nnzPerRow: 16, iters: 10}
	default:
		// 2K rows x 12 elements x 16B = ~400KB of element chains.
		return spmvCfg{rows: 2 << 10, nnzPerRow: 12, iters: 10}
	}
}

func spmvKernel(p Params) func(*ir.Asm) {
	cfg := spmvSizes(p.Size)
	idiom := p.SWIdiom(core.IdiomQueue)
	coop := p.Coop()

	return func(a *ir.Asm) {
		r := NewRNG(0x1b873593)

		// Dense vectors in the global data area.
		xBase := uint32(0x2000)
		yBase := xBase + uint32(4*cfg.rows)
		for i := 0; i < cfg.rows; i++ {
			a.StoreGlobal(svBuild, xBase+uint32(4*i), ir.Imm(r.Next()%100))
		}

		// Row chains, one arena per row band for page locality.  Rows
		// are scattered within their band (the fill-in steady state).
		rowHeads := make([]ir.Val, cfg.rows)
		band := a.Heap().NewArena()
		for i := range rowHeads {
			if i%64 == 0 {
				band = a.Heap().NewArena()
			}
			var head ir.Val
			for e := 0; e < cfg.nnzPerRow; e++ {
				n := a.MallocIn(band, 12)
				a.Store(svBuild+1, n, svValue, ir.Imm(r.Next()%50+1))
				// col holds the byte offset into x (index*4), the form
				// compiled code keeps for indexed addressing.
				a.Store(svBuild+2, n, svCol, ir.Imm(uint32(4*r.Intn(cfg.rows))))
				a.Store(svBuild+3, n, svNext, head)
				head = n
			}
			rowHeads[i] = head
		}

		var queue *core.SWJumpQueue
		if idiom == core.IdiomQueue {
			queue = core.NewSWJumpQueue(a, svQueue, 0, p.EffectiveInterval(), svJump)
		}

		// ---- y = A*x, iterated ----
		for it := 0; it < cfg.iters; it++ {
			for i := 0; i < cfg.rows; i++ {
				acc := ir.Val{}
				e := rowHeads[i]
				for !e.IsNil() {
					if idiom == core.IdiomQueue {
						if p.PrefetchOn() {
							core.JumpPrefetch(a, svIdiom, e, svJump, coop)
						}
						queue.Visit(e)
					}
					v := a.Load(svElem, e, svValue, ir.FLDS)
					col := a.Load(svElem+1, e, svCol, ir.FLDS)
					x := a.LoadIdx(svElem+2, ir.Imm(ir.GlobalBase+xBase), col, 0, 0)
					m := a.Op(svElem+3, ir.FpMult, v.U32()*x.U32(), v, x)
					acc = a.Op(svElem+4, ir.FpAdd, acc.U32()+m.U32(), acc, m)
					nxt := a.Load(svElem+5, e, svNext, ir.FLDS)
					a.Branch(svElem+6, !nxt.IsNil(), svElem, nxt, ir.Val{})
					e = nxt
				}
				a.StoreGlobal(svRow, yBase+uint32(4*i), acc)
			}
		}
	}
}
