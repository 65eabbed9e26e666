package kernels

import (
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/olden"
)

// lru models a fixed-capacity LRU cache: a hash index over a doubly
// linked recency list.  Every hit unlinks the node and splices it at
// the head; every miss evicts the tail and admits a fresh node.  This
// is the paper's volatile-LDS worst case: periodic "aging" scans walk
// the recency list and install jump pointers along it, but the zipf get
// stream reorders the list continuously, so by the next scan the
// pointers describe a recency order that no longer exists.  Coverage
// stays high (the pointers still name resident nodes) while accuracy
// and timeliness collapse — the degradation §6 predicts.
//
// Layout (payload bytes; blocks round to power-of-two classes):
//
//	node: key(0) val(4) prev(8) next(12) hnext(16) [jump(20)] = 20 -> 32
const (
	luKey   = 0
	luVal   = 4
	luPrev  = 8
	luNext  = 12
	luHNext = 16
	luJump  = 20

	// Global-data offsets for the list head/tail anchors.
	luHeadOff = accBase + 8
	luTailOff = accBase + 12
)

// Static sites for lru.
const (
	luBuild = ir.FirstUserSite + iota*8
	luHash
	luGet
	luHit
	luProm
	luEvict
	luIns
	luScan
	luIdiom
	luQueue // SWJumpQueueSites
)

func init() {
	Register(&Benchmark{
		Name:        "lru",
		Description: "LRU cache under a zipf get stream (volatile LDS)",
		Structures:  "hash index over a doubly-linked recency list",
		Behavior:    "every hit promotes, every miss evicts: jump pointers rot",
		Idioms:      []core.Idiom{core.IdiomQueue},
		Traversals:  10,
		Extension:   true,
		Kernel:      lruKernel,
	})
}

type lruCfg struct {
	capacity int
	buckets  int // hash directory size (power of two)
	keyspace int
	gets     int
	scanEach int // aging scan period, in gets
}

func lruSizes(s Size) lruCfg {
	switch s {
	case SizeTest:
		return lruCfg{capacity: 24, buckets: 8, keyspace: 72, gets: 96, scanEach: 32}
	case SizeSmall:
		return lruCfg{capacity: 1024, buckets: 256, keyspace: 3072, gets: 4096, scanEach: 1024}
	case SizeLarge:
		// 32K x 32B = 1MB of resident nodes: well past the L2.
		return lruCfg{capacity: 32000, buckets: 8192, keyspace: 96000, gets: 60000, scanEach: 6000}
	default:
		// 12K x 32B = ~384KB of resident nodes plus a 16KB directory:
		// far beyond the L1, most of the way into the L2.
		return lruCfg{capacity: 12000, buckets: 4096, keyspace: 36000, gets: 40000, scanEach: 4000}
	}
}

// lruNode mirrors one resident entry so list surgery knows its
// neighbours without re-deriving them; the pointer loads and stores a
// real implementation performs are still emitted.
type lruNode struct {
	addr       ir.Val
	key        uint32
	prev, next *lruNode
	hnext      *lruNode
}

// lruBucket mirrors the emitted hashMix chain in Go.
func lruBucket(key, mask uint32) uint32 {
	h1 := key * 2654435761
	return (h1 ^ (h1 >> 13)) & mask
}

func lruKernel(p Params) func(*ir.Asm) {
	cfg := lruSizes(p.Size)
	idiom := p.SWIdiom(core.IdiomQueue)
	isCoop := p.Coop()

	return func(a *ir.Asm) {
		r := olden.NewRNG(0x27d4eb2f)

		var queue *core.SWJumpQueue
		if idiom == core.IdiomQueue {
			queue = core.NewSWJumpQueue(a, luQueue, 0, p.EffectiveInterval(), luJump)
		}

		dir := a.Malloc(uint32(cfg.buckets) * 4)
		mask := uint32(cfg.buckets - 1)
		byKey := map[uint32]*lruNode{}
		chains := map[uint32]*lruNode{} // bucket index -> chain head
		var head, tail *lruNode
		count := 0

		bucketOff := func(key ir.Val) uint32 {
			h := hashMix(a, luHash, key)
			idx := a.Alu(luHash+3, h.U32()&uint32(cfg.buckets-1), h, ir.Imm(uint32(cfg.buckets-1)))
			return idx.U32() * 4
		}

		// promote splices node n to the head of the recency list — the
		// mutation that invalidates the aging scan's jump pointers.
		promote := func(n *lruNode) {
			isHead := n == head
			a.Branch(luProm, isHead, luHit, n.addr, ir.Val{})
			if isHead {
				return
			}
			pv := a.Load(luProm+1, n.addr, luPrev, ir.FLDS)
			nx := a.Load(luProm+2, n.addr, luNext, ir.FLDS)
			a.Store(luProm+3, pv, luNext, nx)
			if n.next == nil {
				a.StoreGlobal(luProm+4, luTailOff, pv)
				tail = n.prev
			} else {
				a.Store(luProm+4, nx, luPrev, pv)
				n.next.prev = n.prev
			}
			n.prev.next = n.next
			oldHead := a.LoadGlobal(luProm+5, luHeadOff)
			a.Store(luProm+6, n.addr, luPrev, ir.Imm(0))
			a.Store(luProm+7, n.addr, luNext, oldHead)
			a.Store(luHit+6, oldHead, luPrev, n.addr)
			a.StoreGlobal(luHit+7, luHeadOff, n.addr)
			n.prev, n.next = nil, head
			head.prev = n
			head = n
		}

		// evict drops the tail: unlink from the recency list, then walk
		// its hash chain to unlink it there too, then free the block.
		evict := func() {
			t := a.LoadGlobal(luEvict, luTailOff)
			pv := a.Load(luEvict+1, t, luPrev, ir.FLDS)
			a.Store(luEvict+2, pv, luNext, ir.Imm(0))
			a.StoreGlobal(luEvict+3, luTailOff, pv)
			victim := tail
			tail = tail.prev
			tail.next = nil

			key := a.Load(luEvict+4, t, luKey, ir.FLDS)
			off := bucketOff(key)
			b := lruBucket(victim.key, mask)
			e := a.Load(luEvict+5, dir, off, ir.FLDS)
			if chains[b] == victim {
				hn := a.Load(luEvict+6, t, luHNext, ir.FLDS)
				a.Store(luEvict+7, dir, off, hn)
				chains[b] = victim.hnext
			} else {
				// Walk to the chain predecessor, then unlink.
				pred := chains[b]
				cur := e
				for {
					hn := a.Load(luGet+5, cur, luHNext, ir.FLDS)
					found := pred.hnext == victim
					a.Branch(luGet+6, found, luBuild+3, hn, t)
					if found {
						vn := a.Load(luBuild+3, t, luHNext, ir.FLDS)
						a.Store(luBuild+4, cur, luHNext, vn)
						pred.hnext = victim.hnext
						break
					}
					cur = hn
					pred = pred.hnext
				}
			}
			delete(byKey, victim.key)
			a.FreeNode(t)
			count--
		}

		insert := func(key uint32) {
			n := &lruNode{key: key, addr: a.Malloc(20)}
			a.Store(luIns, n.addr, luKey, ir.Imm(key))
			a.Store(luIns+1, n.addr, luVal, ir.Imm(key*7+3))
			off := bucketOff(ir.Imm(key))
			bh := a.Load(luIns+2, dir, off, ir.FLDS)
			a.Store(luIns+3, n.addr, luHNext, bh)
			a.Store(luIns+4, dir, off, n.addr)
			oldHead := a.LoadGlobal(luIns+5, luHeadOff)
			a.Store(luIns+6, n.addr, luNext, oldHead)
			if head != nil {
				a.Store(luBuild, oldHead, luPrev, n.addr)
			} else {
				a.StoreGlobal(luBuild+1, luTailOff, n.addr)
				tail = n
			}
			a.StoreGlobal(luBuild+2, luHeadOff, n.addr)
			b := lruBucket(key, mask)
			n.hnext = chains[b]
			chains[b] = n
			n.next = head
			if head != nil {
				head.prev = n
			}
			head = n
			byKey[key] = n
			count++
		}

		get := func(key uint32) {
			off := bucketOff(ir.Imm(key))
			e := a.Load(luGet, dir, off, ir.FLDS)
			n := byKey[key]
			for !e.IsNil() {
				k := a.Load(luGet+1, e, luKey, ir.FLDS)
				hit := k.U32() == key
				a.Branch(luGet+2, hit, luHit, k, ir.Imm(key))
				if hit {
					break
				}
				e = a.Load(luGet+3, e, luHNext, ir.FLDS)
				a.Branch(luGet+4, !e.IsNil(), luGet+1, e, ir.Val{})
			}
			if n != nil {
				v := a.Load(luHit, n.addr, luVal, ir.FLDS)
				acc := a.LoadGlobal(luHit+1, accBase)
				a.StoreGlobal(luHit+2, accBase, a.Alu(luHit+3, acc.U32()+v.U32(), acc, v))
				promote(n)
				return
			}
			if count == cfg.capacity {
				evict()
			}
			insert(key)
		}

		// agingScan walks the recency list head to tail, summing values
		// and installing jump pointers along today's recency order.
		agingScan := func() {
			cur := a.LoadGlobal(luScan, luHeadOff)
			sum := ir.Imm(0)
			for !cur.IsNil() {
				if p.PrefetchOn() && idiom == core.IdiomQueue {
					queuePrefetch(a, luIdiom, cur, luJump, isCoop)
				}
				v := a.Load(luScan+1, cur, luVal, ir.FLDS)
				sum = a.Alu(luScan+2, sum.U32()+v.U32(), sum, v)
				if queue != nil {
					queue.Visit(cur)
				}
				cur = a.Load(luScan+3, cur, luNext, ir.FLDS)
				a.Branch(luScan+4, !cur.IsNil(), luScan+1, cur, ir.Val{})
			}
			acc := a.LoadGlobal(luScan+5, accBase+4)
			a.StoreGlobal(luScan+6, accBase+4, a.Alu(luScan+7, acc.U32()+sum.U32(), acc, sum))
		}

		z := newZipf(r, cfg.keyspace)
		for i := 0; i < cfg.gets; i++ {
			get(uint32(z.next())*2 + 1)
			if (i+1)%cfg.scanEach == 0 {
				agingScan()
			}
		}
	}
}
