package kernels

import (
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/olden"
)

// skiplist models a classic probabilistic skip list: towers of forward
// pointers with geometrically distributed heights (p = 1/4, capped at
// slMaxLevel).  Descents from the top level are short, branchy chases
// the paper's schemes cannot help much; the level-0 backbone scans that
// follow each batch of inserts are long serialized traversals where
// queue jumping shines.  Inserts splice at every level, so the backbone
// keeps acquiring nodes between scans.
//
// Layout (payload bytes; blocks round to power-of-two classes):
//
//	node: key(0) height(4) val(8) fwd[8](12..40) [jump(44)] = 44 -> 64
const (
	slKey    = 0
	slHeight = 4
	slVal    = 8
	slFwd0   = 12
	slJump   = 44

	slMaxLevel = 8
)

// Static sites for skiplist.
const (
	slBuild = ir.FirstUserSite + iota*8
	slDesc
	slSplice
	slScan
	slScan2
	slIdiom
	slQueue // SWJumpQueueSites
)

func init() {
	Register(&Benchmark{
		Name:        "skiplist",
		Description: "probabilistic skip list with descents and backbone scans",
		Structures:  "level-0 backbone + geometric towers of forward pointers",
		Behavior:    "branchy descents, long level-0 scans, insert splices",
		Idioms:      []core.Idiom{core.IdiomQueue},
		Traversals:  12,
		Extension:   true,
		Kernel:      skiplistKernel,
	})
}

type skiplistCfg struct {
	nodes    int // total inserts
	batches  int // insert batches (one backbone scan after each)
	searches int // descents per batch
}

func skiplistSizes(s Size) skiplistCfg {
	switch s {
	case SizeTest:
		return skiplistCfg{nodes: 48, batches: 2, searches: 16}
	case SizeSmall:
		return skiplistCfg{nodes: 2048, batches: 4, searches: 256}
	case SizeLarge:
		// 20K x 64B = ~1.3MB of nodes: well past the L2.
		return skiplistCfg{nodes: 20000, batches: 8, searches: 1500}
	default:
		// 8K x 64B = ~512KB of nodes: far beyond the L1, filling the
		// 512KB L2, so backbone scans miss all the way down.
		return skiplistCfg{nodes: 8000, batches: 8, searches: 1500}
	}
}

func skiplistKernel(p Params) func(*ir.Asm) {
	cfg := skiplistSizes(p.Size)
	idiom := p.SWIdiom(core.IdiomQueue)
	isCoop := p.Coop()

	return func(a *ir.Asm) {
		r := olden.NewRNG(0x85ebca6b)

		var queue *core.SWJumpQueue
		if idiom == core.IdiomQueue {
			queue = core.NewSWJumpQueue(a, slQueue, 0, p.EffectiveInterval(), slJump)
		}

		// Head node: key 0 (smaller than any real key), full height.
		head := a.Malloc(44)
		a.Store(slBuild, head, slHeight, ir.Imm(slMaxLevel))

		// randHeight draws a geometric (p = 1/4) height in
		// [1, slMaxLevel].
		randHeight := func() int {
			h := 1
			for h < slMaxLevel && r.Next()&3 == 0 {
				h++
			}
			return h
		}

		// descend walks from the top level down to level 0, returning
		// the per-level predecessors of key.  Every pointer hop is an
		// emitted LDS load with a data-dependent branch, the access
		// shape the validate generator's skip-descent idiom mirrors.
		descend := func(key uint32) [slMaxLevel]ir.Val {
			var pred [slMaxLevel]ir.Val
			cur := head
			for lvl := slMaxLevel - 1; lvl >= 0; lvl-- {
				off := uint32(slFwd0 + 4*lvl)
				for {
					nxt := a.Load(slDesc, cur, off, ir.FLDS)
					if nxt.IsNil() {
						a.Branch(slDesc+1, false, slDesc, nxt, ir.Imm(key))
						break
					}
					k := a.Load(slDesc+2, nxt, slKey, ir.FLDS)
					fwd := k.U32() < key
					a.Branch(slDesc+1, fwd, slDesc, k, ir.Imm(key))
					if !fwd {
						break
					}
					cur = nxt
				}
				pred[lvl] = cur
			}
			return pred
		}

		insert := func(key uint32) {
			pred := descend(key)
			h := randHeight()
			n := a.Malloc(44)
			a.Store(slSplice, n, slKey, ir.Imm(key))
			a.Store(slSplice+1, n, slHeight, ir.Imm(uint32(h)))
			a.Store(slSplice+2, n, slVal, ir.Imm(key^0x9e37))
			for lvl := 0; lvl < h; lvl++ {
				off := uint32(slFwd0 + 4*lvl)
				nxt := a.Load(slSplice+3, pred[lvl], off, ir.FLDS)
				a.Store(slSplice+4, n, off, nxt)
				a.Store(slSplice+5, pred[lvl], off, n)
			}
		}

		search := func(key uint32) {
			pred := descend(key)
			nxt := a.Load(slScan2, pred[0], slFwd0, ir.FLDS)
			if nxt.IsNil() {
				return
			}
			v := a.Load(slScan2+1, nxt, slVal, ir.FLDS)
			acc := a.LoadGlobal(slScan2+2, accBase)
			a.StoreGlobal(slScan2+3, accBase, a.Alu(slScan2+4, acc.U32()+v.U32(), acc, v))
		}

		// scan walks the whole level-0 backbone accumulating values:
		// the serialized traversal the queue method installs and chases
		// jump pointers along.
		scan := func() {
			cur := a.Load(slScan, head, slFwd0, ir.FLDS)
			sum := ir.Imm(0)
			for !cur.IsNil() {
				if p.PrefetchOn() && idiom == core.IdiomQueue {
					queuePrefetch(a, slIdiom, cur, slJump, isCoop)
				}
				v := a.Load(slScan+1, cur, slVal, ir.FLDS)
				sum = a.Alu(slScan+2, sum.U32()+v.U32(), sum, v)
				if queue != nil {
					queue.Visit(cur)
				}
				nxt := a.Load(slScan+3, cur, slFwd0, ir.FLDS)
				a.Branch(slScan+4, !nxt.IsNil(), slScan+1, nxt, ir.Val{})
				cur = nxt
			}
			acc := a.LoadGlobal(slScan+5, accBase+4)
			a.StoreGlobal(slScan+6, accBase+4, a.Alu(slScan+7, acc.U32()+sum.U32(), acc, sum))
		}

		perBatch := cfg.nodes / cfg.batches
		nextKey := func() uint32 { return r.Next()%0xFFFF_FFF0 + 8 }
		for b := 0; b < cfg.batches; b++ {
			for i := 0; i < perBatch; i++ {
				insert(nextKey())
			}
			for i := 0; i < cfg.searches; i++ {
				search(nextKey())
			}
			scan()
		}
	}
}
