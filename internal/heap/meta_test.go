package heap

import (
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/mem"
)

// TestBlockInfoRoundTrip packs every class from MinClass to 2^31 with
// edge payloads and arena IDs up to the cap, and decodes them back.
func TestBlockInfoRoundTrip(t *testing.T) {
	for class := uint64(MinClass); class <= 1<<31; class <<= 1 {
		c := uint32(class)
		for _, payload := range []uint32{0, 1, c / 2, c - 1, c} {
			for _, id := range []ArenaID{0, 1, 12345, maxArenas - 1} {
				bi := newBlockInfo(id, c, payload)
				if bi.tag == 0 {
					t.Fatalf("class %d arena %d: live block encodes as empty", c, id)
				}
				if bi.class() != c || bi.arena() != id || bi.payload != payload {
					t.Fatalf("newBlockInfo(%d, %d, %d) decodes to (%d, %d, %d)",
						id, c, payload, bi.arena(), bi.class(), bi.payload)
				}
				want := c/mem.WordBytes - (payload+mem.WordBytes-1)/mem.WordBytes
				if got := bi.paddingWords(); got != want {
					t.Fatalf("class %d payload %d: paddingWords = %d, want %d", c, payload, got, want)
				}
			}
		}
	}
}

func TestBlockInfoArenaCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("arena ID past the cap must panic")
		}
	}()
	newBlockInfo(maxArenas, MinClass, 1)
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

// TestMetadataMatchesMapModel drives a mixed alloc/free trace and
// checks the paged metadata against a map keyed by block address.
func TestMetadataMatchesMapModel(t *testing.T) {
	type block struct {
		class, payload uint32
	}
	r := rand.New(rand.NewSource(7))
	a := newAlloc()
	img := a.Image()
	ids := []ArenaID{0, a.NewArena(), a.NewArena()}
	model := map[mem.Addr]block{}
	var live, freed []mem.Addr
	check := func(p mem.Addr) {
		t.Helper()
		b, ok := model[p]
		wantPad := uint32(0)
		if ok {
			wantPad = b.class/mem.WordBytes - (b.payload+mem.WordBytes-1)/mem.WordBytes
		}
		if a.BlockSize(p) != b.class || a.PayloadSize(p) != b.payload || a.PaddingWords(p) != wantPad {
			t.Fatalf("%#x: (size %d, payload %d, padding %d), model %+v padding %d",
				p, a.BlockSize(p), a.PayloadSize(p), a.PaddingWords(p), b, wantPad)
		}
		pad, hasPad := a.PaddingAddr(p)
		if hasPad != (wantPad > 0) || hasPad && pad != p+mem.Addr(b.class)-mem.WordBytes {
			t.Fatalf("%#x: PaddingAddr = %#x, %v", p, pad, hasPad)
		}
	}
	for step := 0; step < 5000; step++ {
		if len(live) > 0 && r.Intn(3) == 0 {
			i := r.Intn(len(live))
			p := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			a.Free(p)
			delete(model, p)
			freed = append(freed, p)
		} else {
			n := uint32(r.Intn(300))
			p := a.AllocIn(ids[r.Intn(len(ids))], n)
			if n == 0 {
				n = 1
			}
			model[p] = block{class: SizeClass(n), payload: n}
			live = append(live, p)
			for off := uint32(0); off < n; off += mem.WordBytes {
				img.WriteWord(p+mem.Addr(off), r.Uint32())
			}
		}
		if step%50 == 0 {
			for _, p := range live {
				check(p)
			}
			for _, p := range freed {
				check(p)
			}
		}
	}

	addrs := make([]mem.Addr, 0, len(model))
	for p := range model {
		addrs = append(addrs, p)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	h := fnv.New64a()
	word := func(w uint32) { h.Write([]byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)}) }
	for _, p := range addrs {
		b := model[p]
		word(uint32(p))
		word(b.payload)
		for off := uint32(0); off < (b.payload+mem.WordBytes-1)/mem.WordBytes; off++ {
			word(img.ReadWord(p + mem.Addr(off*mem.WordBytes)))
		}
	}
	if got, want := a.PayloadChecksum(), h.Sum64(); got != want {
		t.Fatalf("PayloadChecksum = %#x, model %#x", got, want)
	}
}
