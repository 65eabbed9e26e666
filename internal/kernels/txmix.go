package kernels

import (
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/olden"
)

// txmix models a zipf-skewed transactional read/write mix over record
// chains (the OCC-style key/value shape of systems like ddtxn): each
// record is a version header plus a chain of field nodes.  A
// transaction picks a record by zipf rank, reads its version, walks the
// whole chain accumulating fields, and re-checks the version — the
// serialized per-record traversal the queue method jumps along.  Write
// transactions additionally bump the version, read-modify-write one
// field, and sometimes prepend a fresh node, so hot chains keep
// growing at the front and the hottest records see the most pointer
// churn.  Root jumping is the natural secondary idiom: the next
// transaction's record is known a step ahead, so its chain head can be
// chased while the current chain is processed.
//
// Layouts (payload bytes; blocks round to power-of-two classes):
//
//	record:    version(0) head(4) len(8)      = 12 -> 16
//	field:     val(0) next(4) tag(8) [jump(12)] = 12 -> 16
//	directory: R record-pointer words         = 4R
const (
	txVersion = 0
	txHead    = 4
	txLen     = 8

	txfVal  = 0
	txfNext = 4
	txfJump = 12
)

// Static sites for txmix.
const (
	txBuild = ir.FirstUserSite + iota*8
	txPick
	txWalk
	txWrite
	txVer
	txIdiom
	txRoot
	txQueue // SWJumpQueueSites
)

func init() {
	Register(&Benchmark{
		Name:        "txmix",
		Description: "zipf transactional read/write mix over record chains",
		Structures:  "record directory + per-record field chains",
		Behavior:    "hot chains re-walked constantly, writes prepend nodes",
		Idioms:      []core.Idiom{core.IdiomQueue, core.IdiomRoot},
		Traversals:  6,
		Extension:   true,
		Kernel:      txmixKernel,
	})
}

type txmixCfg struct {
	records int
	chain   int // initial field nodes per record
	txns    int
}

func txmixSizes(s Size) txmixCfg {
	switch s {
	case SizeTest:
		return txmixCfg{records: 16, chain: 6, txns: 24}
	case SizeSmall:
		return txmixCfg{records: 256, chain: 12, txns: 800}
	case SizeLarge:
		// 2K records x 32 fields x 16B = ~1MB of chain data: well past
		// the L2.
		return txmixCfg{records: 2048, chain: 32, txns: 8000}
	default:
		// 1K records x 24 fields x 16B = ~384KB of chain data: far
		// beyond the L1, most of the way into the L2.
		return txmixCfg{records: 1024, chain: 24, txns: 6000}
	}
}

func txmixKernel(p Params) func(*ir.Asm) {
	cfg := txmixSizes(p.Size)
	idiom := p.SWIdiom(core.IdiomQueue)
	isCoop := p.Coop()

	return func(a *ir.Asm) {
		r := olden.NewRNG(0x2545f491)

		var queue *core.SWJumpQueue
		if idiom == core.IdiomQueue {
			queue = core.NewSWJumpQueue(a, txQueue, 0, p.EffectiveInterval(), txfJump)
		}

		// Build: the record directory, then each record's chain
		// (prepend order, so chain order reverses allocation order).
		dir := a.Malloc(uint32(cfg.records) * 4)
		recs := make([]ir.Val, cfg.records)
		chainLen := make([]int, cfg.records)
		for i := range recs {
			rec := a.Malloc(12)
			recs[i] = rec
			a.Store(txBuild, dir, uint32(4*i), rec)
			for j := 0; j < cfg.chain; j++ {
				n := a.Malloc(12)
				a.Store(txBuild+1, n, txfVal, ir.Imm(r.Next()&0xFFFF))
				head := a.Load(txBuild+2, rec, txHead, ir.FLDS)
				a.Store(txBuild+3, n, txfNext, head)
				a.Store(txBuild+4, rec, txHead, n)
			}
			a.Store(txBuild+5, rec, txLen, ir.Imm(uint32(cfg.chain)))
			chainLen[i] = cfg.chain
		}

		prepend := func(ri int, rec ir.Val) {
			n := a.Malloc(12)
			a.Store(txWrite, n, txfVal, ir.Imm(r.Next()&0xFFFF))
			head := a.Load(txWrite+1, rec, txHead, ir.FLDS)
			a.Store(txWrite+2, n, txfNext, head)
			a.Store(txWrite+3, rec, txHead, n)
			chainLen[ri]++
			a.Store(txWrite+4, rec, txLen, ir.Imm(uint32(chainLen[ri])))
		}

		// The zipf schedule is drawn up front so root jumping can see
		// one transaction ahead (a real system knows its queued next
		// request just the same).
		z := newZipf(r, cfg.records)
		picks := make([]int, cfg.txns)
		for i := range picks {
			picks[i] = z.next()
		}

		txn := func(ri int, nextRI int) {
			// Root jumping: chase the next record's chain head while
			// this transaction runs.
			var rootJ ir.Val
			if idiom == core.IdiomRoot && nextRI >= 0 && p.PrefetchOn() {
				if isCoop {
					a.Prefetch(txRoot, recs[nextRI], txHead, ir.FJumpChase)
				} else {
					a.Overhead(func() {
						rootJ = a.Load(txRoot, recs[nextRI], txHead, 0)
						a.Prefetch(txRoot+1, rootJ, 0, 0)
					})
				}
			}

			rec := a.Load(txPick, dir, uint32(4*ri), ir.FLDS)
			ver := a.Load(txPick+1, rec, txVersion, ir.FLDS)
			isWrite := r.Intn(5) == 0
			wslot := -1
			if isWrite {
				wslot = r.Intn(chainLen[ri])
			}

			n := a.Load(txPick+2, rec, txHead, ir.FLDS)
			sum := ir.Imm(0)
			slot := 0
			for !n.IsNil() {
				switch {
				case p.PrefetchOn() && idiom == core.IdiomQueue:
					queuePrefetch(a, txIdiom, n, txfJump, isCoop)
				case p.PrefetchOn() && idiom == core.IdiomRoot && !isCoop && !rootJ.IsNil():
					// Chain along the next record's field nodes.
					a.Overhead(func() {
						a.Prefetch(txIdiom+2, rootJ, 0, 0)
						rootJ = a.Load(txIdiom+3, rootJ, txfNext, 0)
					})
				}
				v := a.Load(txWalk, n, txfVal, ir.FLDS)
				sum = a.Alu(txWalk+1, sum.U32()+v.U32(), sum, v)
				if isWrite && slot == wslot {
					v2 := a.Alu(txWalk+2, v.U32()^0x5bd1, v, ir.Val{})
					a.Store(txWalk+3, n, txfVal, v2)
				}
				if queue != nil {
					queue.Visit(n)
				}
				n = a.Load(txWalk+4, n, txfNext, ir.FLDS)
				a.Branch(txWalk+5, !n.IsNil(), txWalk, n, ir.Val{})
				slot++
			}

			// OCC-style version re-check, then commit effects.
			ver2 := a.Load(txVer, rec, txVersion, ir.FLDS)
			a.Branch(txVer+1, ver2.U32() == ver.U32(), txVer+2, ver2, ver)
			acc := a.LoadGlobal(txVer+2, accBase)
			a.StoreGlobal(txVer+3, accBase, a.Alu(txVer+4, acc.U32()+sum.U32(), acc, sum))
			if isWrite {
				a.Store(txVer+5, rec, txVersion, a.AddImm(txVer+6, ver, 1))
				if r.Intn(4) == 0 {
					prepend(ri, rec)
				}
			}
		}

		for i := 0; i < cfg.txns; i++ {
			next := -1
			if i+1 < cfg.txns {
				next = picks[i+1]
			}
			txn(picks[i], next)
		}
	}
}
