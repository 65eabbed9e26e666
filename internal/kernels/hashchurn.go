package kernels

import (
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/olden"
)

// hashchurn models a chained hash table under growth churn: zipf-skewed
// probe batches interleave with insert batches, and every time the load
// factor passes 4 the table doubles and rehashes every entry — a long
// serialized sweep that both scrambles the chains' physical order and
// invalidates the probe-stream jump pointers installed so far.  The
// probe stream itself is the serialized traversal the queue method
// jumps along (the Pointer-Chase Prefetcher evaluation's hash-probe
// workload, PAPERS.md 1801.08088).
//
// Layouts (payload bytes; blocks round to power-of-two classes):
//
//	entry:     key(0) val(4) next(8) [jump(12)]  = 12 -> 16
//	directory: nbuckets chain-head words         = 4n
const (
	heKey  = 0
	heVal  = 4
	heNext = 8
	heJump = 12
)

// Static sites for hashchurn.
const (
	hcBuild = ir.FirstUserSite + iota*8
	hcHash
	hcIns
	hcRes
	hcProbe
	hcWalk
	hcIdiom
	hcQueue // SWJumpQueueSites
)

func init() {
	Register(&Benchmark{
		Name:        "hashchurn",
		Description: "chained hash table with resize churn",
		Structures:  "bucket directory + singly-linked entry chains",
		Behavior:    "zipf probes over chains, periodic full rehash sweeps",
		Idioms:      []core.Idiom{core.IdiomQueue},
		Traversals:  8,
		Extension:   true,
		Kernel:      hashchurnKernel,
	})
}

type hashchurnCfg struct {
	buckets0 int // initial directory size (power of two)
	rounds   int
	insPer   int // inserts per round
	probePer int // probes per round
}

func hashchurnSizes(s Size) hashchurnCfg {
	switch s {
	case SizeTest:
		return hashchurnCfg{buckets0: 8, rounds: 2, insPer: 24, probePer: 48}
	case SizeSmall:
		return hashchurnCfg{buckets0: 64, rounds: 4, insPer: 512, probePer: 1024}
	case SizeLarge:
		// ~56K entries x 16B = ~0.9MB of chain data: well past the L2.
		return hashchurnCfg{buckets0: 256, rounds: 8, insPer: 7000, probePer: 14000}
	default:
		// ~24K entries x 16B = ~384KB of chain data plus a 32KB final
		// directory: far beyond the 64KB L1, around the 512KB L2 — the
		// latency-bound regime the Olden kernels also target.
		return hashchurnCfg{buckets0: 256, rounds: 8, insPer: 3000, probePer: 6000}
	}
}

func hashchurnKernel(p Params) func(*ir.Asm) {
	cfg := hashchurnSizes(p.Size)
	idiom := p.SWIdiom(core.IdiomQueue)
	isCoop := p.Coop()

	return func(a *ir.Asm) {
		r := olden.NewRNG(0x5bd1e995)

		nbuckets := cfg.buckets0
		count := 0
		dir := a.Malloc(uint32(nbuckets) * 4)
		var keys []uint32 // insert order; zipf rank 0 = most recent

		var queue *core.SWJumpQueue
		if idiom == core.IdiomQueue {
			queue = core.NewSWJumpQueue(a, hcQueue, 0, p.EffectiveInterval(), heJump)
		}

		// bucketOff emits the hash computation and returns the
		// directory byte offset of key's chain head.
		bucketOff := func(key uint32) uint32 {
			h := hashMix(a, hcHash, ir.Imm(key))
			idx := a.Alu(hcHash+3, h.U32()&uint32(nbuckets-1), h, ir.Imm(uint32(nbuckets-1)))
			return idx.U32() * 4
		}

		insert := func(key uint32) {
			off := bucketOff(key)
			n := a.Malloc(12)
			a.Store(hcIns, n, heKey, ir.Imm(key))
			a.Store(hcIns+1, n, heVal, ir.Imm(key*3+1))
			head := a.Load(hcIns+2, dir, off, ir.FLDS)
			a.Store(hcIns+3, n, heNext, head)
			a.Store(hcIns+4, dir, off, n)
			count++
			keys = append(keys, key)
		}

		// resize doubles the directory and rehashes every chain: the
		// serialized full-table sweep.  Entry blocks survive but land
		// on new chains, so the probe-stream jump pointers installed
		// before the sweep now point across dead traversal orders.
		resize := func() {
			old, oldN := dir, nbuckets
			nbuckets *= 2
			dir = a.Malloc(uint32(nbuckets) * 4)
			for b := 0; b < oldN; b++ {
				e := a.Load(hcRes, old, uint32(b)*4, ir.FLDS)
				for !e.IsNil() {
					nxt := a.Load(hcRes+1, e, heNext, ir.FLDS)
					key := a.Load(hcRes+2, e, heKey, ir.FLDS)
					h := hashMix(a, hcHash, key)
					idx := a.Alu(hcHash+4, h.U32()&uint32(nbuckets-1), h, ir.Imm(uint32(nbuckets-1)))
					noff := idx.U32() * 4
					head := a.Load(hcRes+3, dir, noff, ir.FLDS)
					a.Store(hcRes+4, e, heNext, head)
					a.Store(hcRes+5, dir, noff, e)
					a.Branch(hcRes+6, !nxt.IsNil(), hcRes, nxt, ir.Val{})
					e = nxt
				}
			}
			a.FreeNode(old)
		}

		// probe walks key's chain, accumulating the value on a hit.
		// Every touched entry enters the jump queue, so prefetches
		// target the entry the probe stream reaches `interval` touches
		// later.
		probe := func(key uint32) {
			off := bucketOff(key)
			e := a.Load(hcProbe, dir, off, ir.FLDS)
			for !e.IsNil() {
				if p.PrefetchOn() && idiom == core.IdiomQueue {
					queuePrefetch(a, hcIdiom, e, heJump, isCoop)
				}
				k := a.Load(hcWalk, e, heKey, ir.FLDS)
				if queue != nil {
					queue.Visit(e)
				}
				hit := k.U32() == key
				a.Branch(hcWalk+1, hit, hcWalk+4, k, ir.Imm(key))
				if hit {
					v := a.Load(hcWalk+4, e, heVal, ir.FLDS)
					acc := a.LoadGlobal(hcWalk+5, accBase)
					sum := a.Alu(hcWalk+6, acc.U32()+v.U32(), acc, v)
					a.StoreGlobal(hcWalk+7, accBase, sum)
					return
				}
				nxt := a.Load(hcWalk+2, e, heNext, ir.FLDS)
				a.Branch(hcWalk+3, !nxt.IsNil(), hcProbe, nxt, ir.Val{})
				e = nxt
			}
		}

		for round := 0; round < cfg.rounds; round++ {
			for i := 0; i < cfg.insPer; i++ {
				insert(r.Next() | 1) // odd keys; even keys always miss
				if count > 4*nbuckets {
					resize()
				}
			}
			z := newZipf(r, len(keys))
			for i := 0; i < cfg.probePer; i++ {
				if r.Intn(8) == 0 {
					probe(r.Next() &^ 1) // guaranteed miss: full chain walk
				} else {
					probe(keys[len(keys)-1-z.next()])
				}
			}
		}
	}
}
