package heap

import (
	"hash/fnv"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/mem"
)

// blockInfo8 is the 8-byte metadata slot the allocator kept per granule
// before blockMeta: the payload in bytes, and a tag packing the arena
// above log2 of the class (arena<<5 | log2(class)).  It stays as the
// reference model that the 2-byte slot, the big-slack map and the chunk
// table must answer like.
type blockInfo8 struct {
	payload uint32
	tag     uint32
}

func newBlockInfo8(id ArenaID, class, payload uint32) blockInfo8 {
	return blockInfo8{payload: payload, tag: uint32(id)<<5 | uint32(bits.Len32(class)-1)}
}

func (b blockInfo8) class() uint32 { return 1 << (b.tag & 31) }

func (b blockInfo8) paddingWords() uint32 {
	return b.class()/mem.WordBytes - (b.payload+mem.WordBytes-1)/mem.WordBytes
}

// TestBlockMetaRoundTrip records every class from MinClass to 2^31
// with edge payloads (1 byte, either side of half the class, either
// side of the largest slack the slot holds, and a full block) and
// requires every geometry query to answer as the blockInfo8 model.
func TestBlockMetaRoundTrip(t *testing.T) {
	for class := uint64(MinClass); class <= 1<<31; class <<= 1 {
		c := uint32(class)
		for _, payload := range []uint32{1, c / 2, c/2 + 1, c - slackBig, c - slackBig + 1, c - 1, c} {
			if payload < 1 || payload > c {
				continue
			}
			m := newRefHeap(t)
			p := (Base + c - 1) &^ (c - 1)
			m.a.setMeta(p, c, payload)
			m.blocks[p] = newBlockInfo8(0, c, payload)
			m.check(p)
			m.check(p + MinClass)
		}
	}
}

// TestAllocClassesAndEdgePayloads allocates every class up to 1 MiB
// with the smallest payload that selects it and with a payload filling
// it (no padding).
func TestAllocClassesAndEdgePayloads(t *testing.T) {
	a := newAlloc()
	for c := uint32(MinClass); c <= 1<<20; c <<= 1 {
		p := a.Alloc(c/2 + 1)
		if a.BlockSize(p) != c || uint32(p)%c != 0 {
			t.Fatalf("class %d: block %#x has size %d", c, p, a.BlockSize(p))
		}
		full := a.Alloc(c)
		if a.BlockSize(full) != c || a.PayloadSize(full) != c || a.PaddingWords(full) != 0 {
			t.Fatalf("class %d full payload: size %d payload %d padding %d",
				c, a.BlockSize(full), a.PayloadSize(full), a.PaddingWords(full))
		}
		if _, ok := a.PaddingAddr(full); ok {
			t.Fatalf("class %d: full block reports padding", c)
		}
	}
	// A zero-byte request is recorded as a one-byte payload.
	z := a.Alloc(0)
	if a.PayloadSize(z) != 1 || a.PaddingWords(z) != 1 {
		t.Fatalf("zero payload: payload %d padding %d", a.PayloadSize(z), a.PaddingWords(z))
	}
}

// TestFreeReturnsBlockToItsArena frees blocks of several classes from
// several arenas and requires each arena to get back exactly its own.
func TestFreeReturnsBlockToItsArena(t *testing.T) {
	a := newAlloc()
	ids := []ArenaID{0, a.NewArena(), a.NewArena(), a.NewArena()}
	classes := []uint32{8, 16, 64, 4096}
	blocks := map[ArenaID]map[uint32]mem.Addr{}
	for _, id := range ids {
		blocks[id] = map[uint32]mem.Addr{}
		for _, c := range classes {
			blocks[id][c] = a.AllocIn(id, c-1)
		}
	}
	for _, id := range ids {
		for _, c := range classes {
			a.Free(blocks[id][c])
		}
	}
	// Reallocate in reverse arena order so a shared free list would
	// hand blocks to the wrong arena.
	for i := len(ids) - 1; i >= 0; i-- {
		id := ids[i]
		for _, c := range classes {
			if got := a.AllocIn(id, c-1); got != blocks[id][c] {
				t.Fatalf("arena %d class %d: got %#x, want its own %#x", id, c, got, blocks[id][c])
			}
		}
	}
}

// refHeap shadows an Allocator with blockInfo8 records keyed by block
// address and with per-arena, per-class LIFO free lists, so a Free that
// files a block under the wrong arena or class shows at the next reuse.
type refHeap struct {
	t           *testing.T
	a           *Allocator
	blocks      map[mem.Addr]blockInfo8
	free        map[uint32][]mem.Addr // by blockInfo8 tag
	live, freed []mem.Addr
}

func newRefHeap(t *testing.T) *refHeap {
	return &refHeap{t: t, a: newAlloc(), blocks: map[mem.Addr]blockInfo8{}, free: map[uint32][]mem.Addr{}}
}

// alloc allocates n bytes in arena id, checks the address against the
// model's free list (or, with that list empty, that a fresh block was
// carved), and fills up to four payload words.
func (r *refHeap) alloc(id ArenaID, n uint32) mem.Addr {
	r.t.Helper()
	carved := r.a.TotalBytes()
	p := r.a.AllocIn(id, n)
	if n == 0 {
		n = 1
	}
	b := newBlockInfo8(id, SizeClass(n), n)
	if fl := r.free[b.tag]; len(fl) > 0 {
		if want := fl[len(fl)-1]; p != want {
			r.t.Fatalf("AllocIn(%d, %d) = %#x, want the arena's freed block %#x", id, n, p, want)
		}
		r.free[b.tag] = fl[:len(fl)-1]
	} else if r.a.TotalBytes() != carved+int(b.class()) || p%b.class() != 0 {
		r.t.Fatalf("AllocIn(%d, %d) = %#x: not a fresh aligned block of class %d", id, n, p, b.class())
	}
	r.blocks[p] = b
	r.live = append(r.live, p)
	for off := uint32(0); off < n && off < 4*mem.WordBytes; off += mem.WordBytes {
		r.a.Image().WriteWord(p+off, p*0x9E3779B1+off)
	}
	r.check(p)
	return p
}

// freeAt frees the i-th live block.
func (r *refHeap) freeAt(i int) {
	r.t.Helper()
	p := r.live[i]
	r.live[i] = r.live[len(r.live)-1]
	r.live = r.live[:len(r.live)-1]
	r.a.Free(p)
	b := r.blocks[p]
	delete(r.blocks, p)
	r.free[b.tag] = append(r.free[b.tag], p)
	r.freed = append(r.freed, p)
	r.check(p)
}

// check compares every geometry query at p with the model; an address
// the model holds no live block at must answer zero everywhere.
func (r *refHeap) check(p mem.Addr) {
	r.t.Helper()
	b, ok := r.blocks[p]
	var wantSize, wantPad uint32
	if ok {
		wantSize, wantPad = b.class(), b.paddingWords()
	}
	a := r.a
	if a.BlockSize(p) != wantSize || a.PayloadSize(p) != b.payload || a.PaddingWords(p) != wantPad {
		r.t.Fatalf("%#x: (size %d, payload %d, padding %d), model %+v live %v padding %d",
			p, a.BlockSize(p), a.PayloadSize(p), a.PaddingWords(p), b, ok, wantPad)
	}
	pad, hasPad := a.PaddingAddr(p)
	if hasPad != (wantPad > 0) || hasPad && pad != p+mem.Addr(b.class())-mem.WordBytes {
		r.t.Fatalf("%#x: PaddingAddr = %#x, %v", p, pad, hasPad)
	}
}

// finish checks every live and freed block, the interior of each live
// block, and PayloadChecksum against the model's sorted walk.
func (r *refHeap) finish() {
	r.t.Helper()
	for _, p := range r.live {
		r.check(p)
		r.check(p + MinClass) // inside the block, or the next block
	}
	for _, p := range r.freed {
		r.check(p)
	}
	addrs := make([]mem.Addr, 0, len(r.blocks))
	for p := range r.blocks {
		addrs = append(addrs, p)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	h := fnv.New64a()
	word := func(w uint32) { h.Write([]byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)}) }
	img := r.a.Image()
	for _, p := range addrs {
		b := r.blocks[p]
		word(p)
		word(b.payload)
		for off := uint32(0); off < (b.payload+mem.WordBytes-1)/mem.WordBytes; off++ {
			word(img.ReadWord(p + off*mem.WordBytes))
		}
	}
	if got, want := r.a.PayloadChecksum(), h.Sum64(); got != want {
		r.t.Fatalf("PayloadChecksum = %#x, model %#x", got, want)
	}
}

// TestMetadataMatchesMapModel drives a mixed alloc/free trace through
// the allocator and the blockInfo8 map model.  Payloads include ones
// whose slack only the big-slack map holds (past 4 KiB classes, and the
// 2049-byte payload of the 4 KiB class), and 200 arenas interleave
// their chunks, so every Free's arena comes from the chunk table.
func TestMetadataMatchesMapModel(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m := newRefHeap(t)
	ids := []ArenaID{0}
	for len(ids) < 200 {
		ids = append(ids, m.a.NewArena())
	}
	for step := 0; step < 5000; step++ {
		if len(m.live) > 0 && r.Intn(3) == 0 {
			m.freeAt(r.Intn(len(m.live)))
			continue
		}
		n := uint32(r.Intn(300))
		switch r.Intn(8) {
		case 0:
			n = 1<<(8+r.Intn(9)) + 1 // just past a class boundary, 256 B to 64 KiB
		case 1:
			n = 2049
		}
		m.alloc(ids[r.Intn(len(ids))], n)
	}
	if len(m.a.bigSlack) == 0 {
		t.Fatal("trace never overflowed the slack field")
	}
	m.finish()
}

// TestBigSlackLeavesWithItsBlock frees a block whose slack lives in the
// side map and reuses its address for a block whose slack fits the
// slot: the side map must not answer for the new block.
func TestBigSlackLeavesWithItsBlock(t *testing.T) {
	a := newAlloc()
	p := a.Alloc(4097)
	if len(a.bigSlack) != 1 || a.PayloadSize(p) != 4097 || a.PaddingWords(p) != (8192-4100)/mem.WordBytes {
		t.Fatalf("4097-byte block: payload %d padding %d, %d side entries",
			a.PayloadSize(p), a.PaddingWords(p), len(a.bigSlack))
	}
	a.Free(p)
	if len(a.bigSlack) != 0 {
		t.Fatal("Free left the block's side-map entry behind")
	}
	if q := a.Alloc(8192); q != p || a.PayloadSize(q) != 8192 || a.PaddingWords(q) != 0 {
		t.Fatalf("reused block %#x: payload %d padding %d", q, a.PayloadSize(q), a.PaddingWords(q))
	}
}

// runHeapDiff decodes ops into an alloc/free trace and runs it through
// the allocator and the model.  ops[0]*16 arenas are made up front (up
// to 4080); each following 4-byte group is one operation: make an
// arena, free a live block, or allocate a payload chosen from the
// shapes that stress the encoding (small, just past a class boundary,
// an exact class, just under a class, up to 64 KiB).
func runHeapDiff(t *testing.T, ops []byte) {
	if len(ops) == 0 {
		return
	}
	m := newRefHeap(t)
	ids := []ArenaID{0}
	for i := 0; i < int(ops[0])*16; i++ {
		ids = append(ids, m.a.NewArena())
	}
	for i := 1; i+3 < len(ops); i += 4 {
		op, x, z := ops[i], int(ops[i+1])<<8|int(ops[i+2]), ops[i+3]
		switch {
		case op%8 == 0 && len(ids) < 8192:
			ids = append(ids, m.a.NewArena())
		case op%8 < 3 && len(m.live) > 0:
			m.freeAt(x % len(m.live))
		default:
			m.alloc(ids[x%len(ids)], fuzzPayload(op>>3, z))
		}
	}
	m.finish()
}

// fuzzPayload maps a shape (0..31) and a byte to a payload size.
func fuzzPayload(shape, z byte) uint32 {
	k := 3 + uint(z)%14 // class 8 B .. 64 KiB
	switch shape % 4 {
	case 0:
		return uint32(z) + uint32(shape)*8
	case 1:
		return 1<<(k-1) + 1
	case 2:
		return 1 << k
	default:
		return 1<<k - uint32(shape>>2)
	}
}

// FuzzHeapMeta checks the 2-byte metadata, the big-slack map and the
// chunk table against the blockInfo8 model over arbitrary alloc/free
// traces, ending each with a PayloadChecksum comparison.
func FuzzHeapMeta(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 7; i++ {
		ops := make([]byte, 64<<i)
		rng.Read(ops)
		ops[0] %= 4
		f.Add(ops)
	}
	// Thousands of arenas, each taking a few boundary-sized blocks.
	ops := make([]byte, 4097)
	rng.Read(ops)
	ops[0] = 200
	f.Add(ops)
	// Every class boundary: allocated, freed, reused and freed again
	// (the heap holds one live block at a time, so each free is it).
	ops = []byte{1}
	for z := byte(0); z < 14; z++ {
		for _, shape := range []byte{1, 2, 3, 31} {
			alloc, free := []byte{shape<<3 | 3, 0, z, z}, []byte{1, 0, 0, 0}
			for _, op := range [][]byte{alloc, free, alloc, free} {
				ops = append(ops, op...)
			}
		}
	}
	f.Add(ops)
	f.Fuzz(runHeapDiff)
}
