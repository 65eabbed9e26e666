package heap

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/mem"
)

func newAlloc() *Allocator { return New(mem.NewImage()) }

func TestSizeClass(t *testing.T) {
	cases := []struct{ n, want uint32 }{
		{0, 8}, {1, 8}, {8, 8}, {9, 16}, {12, 16}, {16, 16},
		{17, 32}, {20, 32}, {32, 32}, {33, 64}, {60, 64}, {64, 64}, {65, 128},
	}
	for _, c := range cases {
		if got := SizeClass(c.n); got != c.want {
			t.Errorf("SizeClass(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestSizeClassLargest checks the top of the class range: 1<<31 is the
// largest class, and a larger payload panics naming its size instead of
// looping forever on a class that wraps to 0.  Each call runs on its own
// goroutine under a deadline so a hang fails the test.
func TestSizeClassLargest(t *testing.T) {
	type result struct {
		class uint32
		panic any
	}
	call := func(n uint32) result {
		ch := make(chan result, 1) // the goroutine never blocks, even after a timeout
		go func() {
			var r result
			defer func() {
				r.panic = recover()
				ch <- r
			}()
			r.class = SizeClass(n)
		}()
		select {
		case r := <-ch:
			return r
		case <-time.After(time.Second):
			t.Fatalf("SizeClass(%d) did not return within 1s", n)
			return result{}
		}
	}
	if r := call(1 << 31); r.panic != nil || r.class != 1<<31 {
		t.Errorf("SizeClass(1<<31) = %d, panic %v; want %d", r.class, r.panic, uint32(1<<31))
	}
	r := call(1<<31 + 1)
	if r.panic == nil {
		t.Fatalf("SizeClass(1<<31+1) = %d, want a panic", r.class)
	}
	if msg := fmt.Sprint(r.panic); !strings.Contains(msg, "2147483649") {
		t.Errorf("panic %q does not name the payload size", msg)
	}
}

func TestSizeClassProperties(t *testing.T) {
	f := func(n uint32) bool {
		n %= 1 << 20
		c := SizeClass(n)
		// Power of two, >= MinClass, >= n, and minimal.
		return c&(c-1) == 0 && c >= MinClass && c >= n && (c == MinClass || c/2 < n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocAlignmentAndDistinctness(t *testing.T) {
	a := newAlloc()
	seen := map[mem.Addr]bool{}
	for i := 0; i < 100; i++ {
		n := uint32(1 + i%60)
		p := a.Alloc(n)
		cls := SizeClass(n)
		if uint32(p)%cls != 0 {
			t.Fatalf("block %#x not aligned to class %d", p, cls)
		}
		if seen[p] {
			t.Fatalf("address %#x allocated twice", p)
		}
		seen[p] = true
		if a.BlockSize(p) != cls || a.PayloadSize(p) != n {
			t.Fatalf("metadata mismatch at %#x", p)
		}
	}
}

func TestPadding(t *testing.T) {
	a := newAlloc()
	// 12-byte payload in a 16-byte block: one padding word at +12.
	p := a.Alloc(12)
	if got := a.PaddingWords(p); got != 1 {
		t.Fatalf("PaddingWords(12B payload) = %d, want 1", got)
	}
	pad, ok := a.PaddingAddr(p)
	if !ok || pad != p+12 {
		t.Fatalf("PaddingAddr = %#x,%v, want %#x", pad, ok, p+12)
	}
	// Exact power-of-two payload: no padding (paper section 3.3: the
	// unvaried load is used, no jump-pointer storage).
	q := a.Alloc(16)
	if got := a.PaddingWords(q); got != 0 {
		t.Fatalf("PaddingWords(16B payload) = %d, want 0", got)
	}
	if _, ok := a.PaddingAddr(q); ok {
		t.Fatal("PaddingAddr must fail for padding-free blocks")
	}
}

func TestFreeRecyclesWithinClassAndArena(t *testing.T) {
	a := newAlloc()
	p := a.Alloc(12)
	a.Free(p)
	q := a.Alloc(10) // same class 16
	if q != p {
		t.Fatalf("free block not recycled: got %#x, want %#x", q, p)
	}
	// A different class must not reuse it.
	a.Free(q)
	r := a.Alloc(30) // class 32
	if r == p {
		t.Fatal("class-32 allocation reused a class-16 block")
	}
}

func TestAllocZeroesRecycledBlocks(t *testing.T) {
	a := newAlloc()
	img := a.Image()
	p := a.Alloc(12)
	img.WriteWord(p, 0x1234)
	img.WriteWord(p+12, 0x5678) // padding word (a stale jump-pointer)
	a.Free(p)
	q := a.Alloc(12)
	if q != p {
		t.Fatalf("expected recycling, got %#x want %#x", q, p)
	}
	if img.ReadWord(q) != 0 || img.ReadWord(q+12) != 0 {
		t.Fatal("recycled block not zeroed")
	}
}

func TestArenasKeepLocality(t *testing.T) {
	a := newAlloc()
	ar1 := a.NewArena()
	ar2 := a.NewArena()
	p1 := a.AllocIn(ar1, 12)
	p2 := a.AllocIn(ar2, 12)
	p3 := a.AllocIn(ar1, 12)
	// Blocks of the same arena are adjacent; different arenas are not.
	if p3-p1 != 16 {
		t.Fatalf("same-arena blocks not adjacent: %#x then %#x", p1, p3)
	}
	if p2 == p1+16 {
		t.Fatal("different arenas interleaved blocks")
	}
	// Frees recycle within their own arena.
	a.Free(p1)
	if got := a.AllocIn(ar2, 12); got == p1 {
		t.Fatal("arena 2 stole arena 1's free block")
	}
	if got := a.AllocIn(ar1, 12); got != p1 {
		t.Fatalf("arena 1 did not recycle its block: got %#x", got)
	}
}

func TestArenaLargeBlock(t *testing.T) {
	a := newAlloc()
	ar := a.NewArena()
	// Bigger than the arena chunk: must still be served, aligned.
	p := a.AllocIn(ar, 3000)
	if a.BlockSize(p) != 4096 || uint32(p)%4096 != 0 {
		t.Fatalf("large block misallocated: addr=%#x class=%d", p, a.BlockSize(p))
	}
}

func TestContains(t *testing.T) {
	a := newAlloc()
	p := a.Alloc(12)
	if !a.Contains(p) || !a.Contains(p+8) {
		t.Fatal("Contains rejects a live heap address")
	}
	if a.Contains(0) || a.Contains(Base-4) {
		t.Fatal("Contains accepts a non-heap address")
	}
}

func TestStats(t *testing.T) {
	a := newAlloc()
	p := a.Alloc(12)
	a.Alloc(40)
	a.Free(p)
	if a.Allocs() != 2 || a.Frees() != 1 {
		t.Fatalf("counts: allocs=%d frees=%d", a.Allocs(), a.Frees())
	}
	if a.LiveBytes() != 64 { // class 64 still live
		t.Fatalf("LiveBytes = %d, want 64", a.LiveBytes())
	}
	if a.TotalBytes() != 16+64 {
		t.Fatalf("TotalBytes = %d", a.TotalBytes())
	}
}

func TestFreeUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Free of unallocated address must panic")
		}
	}()
	newAlloc().Free(0x1234_5678)
}

func TestPaddingAddrForBlock(t *testing.T) {
	if got := PaddingAddrForBlock(0x100, 16); got != 0x10C {
		t.Fatalf("PaddingAddrForBlock = %#x", got)
	}
}

func TestArenaSize(t *testing.T) {
	if got := unsafe.Sizeof(arena{}); got > 16 {
		t.Errorf("arena is %d bytes, want at most 16", got)
	}
}

// TestArenaFreeListsAreLazy checks that an arena holds a free list only
// for each size class it has freed into, added by that class's first
// Free, and that reuse after Free is last-in first-out within each
// arena and class.
func TestArenaFreeListsAreLazy(t *testing.T) {
	a := newAlloc()
	ids := []ArenaID{0, a.NewArena(), a.NewArena(), a.NewArena()}
	blocks := map[ArenaID][]mem.Addr{}
	for round := 0; round < 3; round++ {
		for _, id := range ids {
			blocks[id] = append(blocks[id], a.AllocIn(id, 20))
		}
	}
	// Free arenas 1 and 2's blocks, interleaved.
	for i := 0; i < 3; i++ {
		a.Free(blocks[ids[1]][i])
		a.Free(blocks[ids[2]][i])
	}
	// A block of a second class, freed in arena 1 only.
	big := a.AllocIn(ids[1], 100)
	a.Free(big)
	classes := func(id ArenaID) []uint32 {
		var cs []uint32
		for fl := a.arenas[id].free; fl != nil; fl = fl.next {
			cs = append(cs, 1<<fl.cidx)
		}
		return cs
	}
	want := map[ArenaID][]uint32{
		ids[1]: {SizeClass(100), SizeClass(20)}, // newest class first
		ids[2]: {SizeClass(20)},
	}
	for _, id := range ids {
		if got := classes(id); !reflect.DeepEqual(got, want[id]) {
			t.Errorf("arena %d: free-list classes = %v, want %v", id, got, want[id])
		}
	}
	if got := a.AllocIn(ids[1], 65); got != big {
		t.Fatalf("arena %d reuse of class %d: got %#x, want %#x", ids[1], SizeClass(100), got, big)
	}
	for _, id := range ids[1:3] {
		for i := 2; i >= 0; i-- {
			if got, want := a.AllocIn(id, 17), blocks[id][i]; got != want {
				t.Fatalf("arena %d reuse: got %#x, want %#x (last freed first)", id, got, want)
			}
		}
	}
}
