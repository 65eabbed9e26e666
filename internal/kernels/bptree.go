package kernels

import (
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/olden"
)

// bptree models an insert-built B+tree (distinct from the olden
// "btree" extension, which bulk-loads a perfect tree): keys arrive in
// random order and leaves split top-down on the way to overflow, so the
// leaf chain interleaves old and young blocks in allocation order.
// Point lookups descend through inner nodes with short emitted compare
// runs; after each insert batch a full leaf-chain scan provides the
// long serialized traversal the queue method jumps along, with fresh
// splits steadily diluting the installed pointers.
//
// Layouts (payload bytes; blocks round to power-of-two classes):
//
//	leaf:  count(0) next(4) keys[6](8..28) vals[6](32..52) [jump(56)] = 56 -> 64
//	inner: count(0) keys[5](4..20) kids[6](24..44)                    = 48 -> 64
const (
	bpCount = 0
	bpNext  = 4
	bpKeys  = 8  // leaf keys
	bpVals  = 32 // leaf values
	bpJump  = 56

	bpIKeys = 4  // inner separator keys
	bpIKids = 24 // inner children

	bpFanout = 6
)

// Static sites for bptree.
const (
	bpBuild = ir.FirstUserSite + iota*8
	bpDesc
	bpLeaf
	bpSplit
	bpSplit2
	bpScan
	bpIdiom
	bpQueue // SWJumpQueueSites
)

func init() {
	olden.Register(olden.FamilyKernels, &olden.Benchmark{
		Name:        "bptree",
		Description: "insert-built B+tree with leaf-chain scans",
		Structures:  "inner separator nodes + linked leaf chain",
		Behavior:    "random-order inserts split leaves; scans walk the chain",
		Idioms:      []core.Idiom{core.IdiomQueue},
		Traversals:  10,
		Extension:   true,
		Kernel:      bptreeKernel,
	})
}

type bptreeCfg struct {
	inserts int
	batches int
	lookups int // per batch
}

func bptreeSizes(s olden.Size) bptreeCfg {
	switch s {
	case olden.SizeTest:
		return bptreeCfg{inserts: 60, batches: 2, lookups: 12}
	case olden.SizeSmall:
		return bptreeCfg{inserts: 2500, batches: 4, lookups: 128}
	case olden.SizeLarge:
		// ~10.5K leaves x 64B = ~700KB of leaf data plus inner nodes:
		// well past the L2.
		return bptreeCfg{inserts: 48000, batches: 8, lookups: 500}
	default:
		// ~4.4K leaves x 64B = ~280KB of leaf data plus ~90KB of inner
		// nodes: far beyond the L1, most of the way into the L2.
		return bptreeCfg{inserts: 20000, batches: 8, lookups: 500}
	}
}

// bpNode mirrors one simulated node so descents know leaf-ness and
// counts without re-deriving them from loads; every key compare and
// pointer hop is still emitted.
type bpNode struct {
	addr ir.Val
	leaf bool
	keys []uint32
	kids []*bpNode
	next *bpNode // leaf chain
	n    int     // leaf: keys, inner: kids
}

func bptreeKernel(p olden.Params) func(*ir.Asm) {
	cfg := bptreeSizes(p.Size)
	idiom := p.SWIdiom(core.IdiomQueue)
	isCoop := p.Coop()

	return func(a *ir.Asm) {
		r := olden.NewRNG(0xc2b2ae35)

		var queue *core.SWJumpQueue
		if idiom == core.IdiomQueue {
			queue = core.NewSWJumpQueue(a, bpQueue, 0, p.EffectiveInterval(), bpJump)
		}

		newLeaf := func() *bpNode {
			return &bpNode{addr: a.Malloc(56), leaf: true, keys: make([]uint32, 0, bpFanout)}
		}
		root := newLeaf()
		firstLeaf := root

		// childIndex emits the separator-compare run at an inner node
		// and returns the child slot key belongs to.
		childIndex := func(nd *bpNode, key uint32) int {
			i := 0
			for ; i < nd.n-1; i++ {
				k := a.Load(bpDesc, nd.addr, uint32(bpIKeys+4*i), ir.FLDS)
				left := key < k.U32()
				a.Branch(bpDesc+1, left, bpDesc+3, k, ir.Imm(key))
				if left {
					break
				}
			}
			return i
		}

		// leafSlot emits the in-leaf compare run and returns the
		// insertion slot for key.
		leafSlot := func(nd *bpNode, key uint32) int {
			i := 0
			for ; i < nd.n; i++ {
				k := a.Load(bpLeaf, nd.addr, uint32(bpKeys+4*i), ir.FLDS)
				stop := key < k.U32()
				a.Branch(bpLeaf+1, stop, bpLeaf+3, k, ir.Imm(key))
				if stop {
					break
				}
			}
			return i
		}

		// splitChild splits parent.kids[ci] (which is full) in half,
		// emitting the copies and relinks a real implementation does.
		// parent is guaranteed non-full by top-down preemptive
		// splitting.
		splitChild := func(parent *bpNode, ci int) {
			child := parent.kids[ci]
			half := bpFanout / 2
			var right *bpNode
			var sep uint32
			if child.leaf {
				right = newLeaf()
				// Move the upper half of keys/vals to the new leaf.
				for j := half; j < bpFanout; j++ {
					k := a.Load(bpSplit, child.addr, uint32(bpKeys+4*j), ir.FLDS)
					v := a.Load(bpSplit+1, child.addr, uint32(bpVals+4*j), ir.FLDS)
					a.Store(bpSplit+2, right.addr, uint32(bpKeys+4*(j-half)), k)
					a.Store(bpSplit+3, right.addr, uint32(bpVals+4*(j-half)), v)
				}
				right.keys = append(right.keys, child.keys[half:]...)
				child.keys = child.keys[:half]
				right.n, child.n = bpFanout-half, half
				sep = right.keys[0]
				// Chain relink: right inherits child's next.
				nxt := a.Load(bpSplit+4, child.addr, bpNext, ir.FLDS)
				a.Store(bpSplit+5, right.addr, bpNext, nxt)
				a.Store(bpSplit+6, child.addr, bpNext, right.addr)
				right.next, child.next = child.next, right
			} else {
				right = &bpNode{addr: a.Malloc(48)}
				for j := half; j < bpFanout; j++ {
					kid := a.Load(bpSplit, child.addr, uint32(bpIKids+4*j), ir.FLDS)
					a.Store(bpSplit+2, right.addr, uint32(bpIKids+4*(j-half)), kid)
				}
				for j := half; j < bpFanout-1; j++ {
					k := a.Load(bpSplit+1, child.addr, uint32(bpIKeys+4*j), ir.FLDS)
					a.Store(bpSplit+3, right.addr, uint32(bpIKeys+4*(j-half)), k)
				}
				right.kids = append(right.kids, child.kids[half:]...)
				child.kids = child.kids[:half]
				right.keys = append(right.keys, child.keys[half:]...)
				sep = child.keys[half-1]
				child.keys = child.keys[:half-1]
				right.n, child.n = bpFanout-half, half
			}
			a.Store(bpSplit2, child.addr, bpCount, ir.Imm(uint32(child.n)))
			a.Store(bpSplit2+1, right.addr, bpCount, ir.Imm(uint32(right.n)))
			// Shift parent's upper kids/keys right and splice.
			for j := parent.n - 1; j > ci; j-- {
				kid := a.Load(bpSplit2+2, parent.addr, uint32(bpIKids+4*j), ir.FLDS)
				a.Store(bpSplit2+3, parent.addr, uint32(bpIKids+4*(j+1)), kid)
			}
			for j := parent.n - 2; j >= ci; j-- {
				k := a.Load(bpSplit2+4, parent.addr, uint32(bpIKeys+4*j), ir.FLDS)
				a.Store(bpSplit2+5, parent.addr, uint32(bpIKeys+4*(j+1)), k)
			}
			a.Store(bpSplit2+6, parent.addr, uint32(bpIKids+4*(ci+1)), right.addr)
			a.Store(bpSplit2+7, parent.addr, uint32(bpIKeys+4*ci), ir.Imm(sep))
			parent.kids = append(parent.kids, nil)
			copy(parent.kids[ci+2:], parent.kids[ci+1:])
			parent.kids[ci+1] = right
			parent.keys = append(parent.keys, 0)
			copy(parent.keys[ci+1:], parent.keys[ci:])
			parent.keys[ci] = sep
			parent.n++
			a.Store(bpBuild+1, parent.addr, bpCount, ir.Imm(uint32(parent.n)))
		}

		insert := func(key uint32) {
			if root.n == bpFanout {
				// Grow a new root above the full old one.
				old := root
				root = &bpNode{addr: a.Malloc(48), kids: []*bpNode{old}, n: 1}
				a.Store(bpBuild+2, root.addr, bpIKids, old.addr)
				a.Store(bpBuild+3, root.addr, bpCount, ir.Imm(1))
				splitChild(root, 0)
			}
			nd := root
			for !nd.leaf {
				ci := childIndex(nd, key)
				if nd.kids[ci].n == bpFanout {
					splitChild(nd, ci)
					if key >= nd.keys[ci] {
						ci++
					}
				}
				a.Load(bpDesc+3, nd.addr, uint32(bpIKids+4*ci), ir.FLDS)
				nd = nd.kids[ci]
			}
			slot := leafSlot(nd, key)
			// Shift the upper keys/vals right by one (emitted moves).
			for j := nd.n - 1; j >= slot; j-- {
				k := a.Load(bpLeaf+3, nd.addr, uint32(bpKeys+4*j), ir.FLDS)
				v := a.Load(bpLeaf+4, nd.addr, uint32(bpVals+4*j), ir.FLDS)
				a.Store(bpLeaf+5, nd.addr, uint32(bpKeys+4*(j+1)), k)
				a.Store(bpLeaf+6, nd.addr, uint32(bpVals+4*(j+1)), v)
			}
			a.Store(bpLeaf+7, nd.addr, uint32(bpKeys+4*slot), ir.Imm(key))
			a.Store(bpBuild+4, nd.addr, uint32(bpVals+4*slot), ir.Imm(key^0x517c))
			nd.keys = append(nd.keys, 0)
			copy(nd.keys[slot+1:], nd.keys[slot:])
			nd.keys[slot] = key
			nd.n++
			a.Store(bpBuild+5, nd.addr, bpCount, ir.Imm(uint32(nd.n)))
		}

		lookup := func(key uint32) {
			nd := root
			for !nd.leaf {
				ci := childIndex(nd, key)
				a.Load(bpDesc+3, nd.addr, uint32(bpIKids+4*ci), ir.FLDS)
				nd = nd.kids[ci]
			}
			slot := leafSlot(nd, key)
			if slot < nd.n && nd.keys[slot] == key {
				v := a.Load(bpDesc+4, nd.addr, uint32(bpVals+4*slot), ir.FLDS)
				acc := a.LoadGlobal(bpDesc+5, accBase)
				a.StoreGlobal(bpDesc+6, accBase, a.Alu(bpDesc+7, acc.U32()+v.U32(), acc, v))
			}
		}

		// scan walks the whole leaf chain summing every value: the
		// serialized traversal queue jumping targets.
		scan := func() {
			cur, mirror := firstLeaf.addr, firstLeaf
			sum := ir.Imm(0)
			for !cur.IsNil() {
				if p.PrefetchOn() && idiom == core.IdiomQueue {
					core.JumpPrefetch(a, bpIdiom, cur, bpJump, isCoop)
				}
				for j := 0; j < mirror.n; j++ {
					v := a.Load(bpScan, cur, uint32(bpVals+4*j), ir.FLDS)
					sum = a.Alu(bpScan+1, sum.U32()+v.U32(), sum, v)
				}
				if queue != nil {
					queue.Visit(cur)
				}
				nxt := a.Load(bpScan+2, cur, bpNext, ir.FLDS)
				a.Branch(bpScan+3, !nxt.IsNil(), bpScan, nxt, ir.Val{})
				cur = nxt
				mirror = mirror.next
			}
			acc := a.LoadGlobal(bpScan+4, accBase+4)
			a.StoreGlobal(bpScan+5, accBase+4, a.Alu(bpScan+6, acc.U32()+sum.U32(), acc, sum))
		}

		perBatch := cfg.inserts / cfg.batches
		var keys []uint32
		for b := 0; b < cfg.batches; b++ {
			for i := 0; i < perBatch; i++ {
				k := r.Next()
				insert(k)
				keys = append(keys, k)
			}
			for i := 0; i < cfg.lookups; i++ {
				lookup(keys[r.Intn(len(keys))])
			}
			scan()
		}
	}
}
