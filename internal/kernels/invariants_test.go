package kernels

import (
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/olden"
)

// Structure-invariant tests: each kernel executes for real against the
// simulated heap, then the memory image is walked and checked against
// the structure's defining invariants — skip-list level distribution,
// B+tree node occupancy, LRU eviction order.  The checks run under
// every scheme, and heap.PayloadChecksum pins that no scheme perturbs
// architectural heap state (jump pointers live in block padding, which
// the checksum deliberately excludes).

// runImage drains a kernel and returns the memory image and heap.
func runImage(t *testing.T, name string, p olden.Params) (*mem.Image, *heap.Allocator) {
	t.Helper()
	b, ok := olden.ByName(name)
	if !ok {
		t.Fatalf("kernel %q not registered", name)
	}
	alloc := heap.New(mem.NewImage())
	g := ir.NewGen(alloc, b.Kernel(p))
	for d := g.Next(); d != nil; d = g.Next() {
	}
	return alloc.Image(), alloc
}

// TestStructureInvariants drives every structural check for every
// kernel under every scheme, and asserts the heap payload checksum is
// scheme-invariant (the none-scheme checksum is the reference).
func TestStructureInvariants(t *testing.T) {
	tests := []struct {
		name  string
		check func(t *testing.T, img *mem.Image, alloc *heap.Allocator)
	}{
		{"hashchurn", nil},
		{"skiplist", checkSkiplist},
		{"bptree", checkBptree},
		{"lru", checkLRU},
		{"multilist", nil},
		{"quicklist", checkQuicklist},
		{"txmix", nil},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var baseSum uint64
			for i, scheme := range core.Schemes() {
				img, alloc := runImage(t, tc.name, olden.Params{Scheme: scheme, Size: olden.SizeTest})
				sum := alloc.PayloadChecksum()
				if i == 0 {
					baseSum = sum
				} else if sum != baseSum {
					t.Fatalf("%v: payload checksum %#x != none-scheme %#x",
						scheme, sum, baseSum)
				}
				if tc.check != nil {
					tc.check(t, img, alloc)
				}
			}
		})
	}
}

// checkSkiplist verifies the probabilistic tower invariants: level-0
// holds every node in nondecreasing key order, the height histogram is
// monotone nonincreasing over the first levels (geometric p=1/4), and
// the level-l chain is exactly the level-0 subsequence of nodes with
// height > l.
func checkSkiplist(t *testing.T, img *mem.Image, _ *heap.Allocator) {
	head := uint32(heap.Base) // first allocation
	cfg := skiplistSizes(olden.SizeTest)

	var order []uint32
	heights := map[uint32]uint32{}
	hist := make([]int, slMaxLevel+1)
	prevKey := uint32(0)
	for p := img.ReadWord(head + slFwd0); p != 0; p = img.ReadWord(p + slFwd0) {
		key := img.ReadWord(p + slKey)
		if key < prevKey {
			t.Fatalf("level-0 keys out of order: %d after %d", key, prevKey)
		}
		prevKey = key
		h := img.ReadWord(p + slHeight)
		if h < 1 || h > slMaxLevel {
			t.Fatalf("node %#x has height %d outside [1,%d]", p, h, slMaxLevel)
		}
		heights[p] = h
		hist[h]++
		order = append(order, p)
	}
	if len(order) != cfg.nodes {
		t.Fatalf("level-0 holds %d nodes, want %d", len(order), cfg.nodes)
	}
	for h := 1; h < 3; h++ {
		if hist[h] < hist[h+1] {
			t.Errorf("height histogram not monotone: %d nodes at h=%d < %d at h=%d",
				hist[h], h, hist[h+1], h+1)
		}
	}
	for lvl := 1; lvl < slMaxLevel; lvl++ {
		var want []uint32
		for _, p := range order {
			if heights[p] > uint32(lvl) {
				want = append(want, p)
			}
		}
		var got []uint32
		for p := img.ReadWord(head + slFwd0 + uint32(4*lvl)); p != 0; p = img.ReadWord(p + slFwd0 + uint32(4*lvl)) {
			got = append(got, p)
		}
		if len(got) != len(want) {
			t.Fatalf("level %d holds %d nodes, want %d", lvl, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("level %d node %d = %#x, want %#x", lvl, i, got[i], want[i])
			}
		}
	}
}

// checkBptree verifies occupancy and ordering along the leaf chain:
// every leaf holds between half-full and full key counts, keys are
// sorted within and across leaves, and the chain holds every insert.
func checkBptree(t *testing.T, img *mem.Image, _ *heap.Allocator) {
	first := uint32(heap.Base) // root leaf is the first allocation
	cfg := bptreeSizes(olden.SizeTest)

	total := 0
	leaves := 0
	prevKey := uint32(0)
	for p := first; p != 0; p = img.ReadWord(p + bpNext) {
		n := img.ReadWord(p + bpCount)
		if n < bpFanout/2 || n > bpFanout {
			t.Fatalf("leaf %#x holds %d keys outside [%d,%d]", p, n, bpFanout/2, bpFanout)
		}
		for j := uint32(0); j < n; j++ {
			key := img.ReadWord(p + bpKeys + 4*j)
			if key < prevKey {
				t.Fatalf("leaf chain keys out of order: %d after %d", key, prevKey)
			}
			prevKey = key
		}
		total += int(n)
		leaves++
	}
	if total != cfg.inserts {
		t.Fatalf("leaf chain holds %d keys, want %d", total, cfg.inserts)
	}
	if leaves < 2 {
		t.Fatalf("expected a split tree, got %d leaf/leaves", leaves)
	}
}

// checkLRU replays the kernel's zipf get stream against a pure-Go LRU
// and asserts the simulated recency list finishes in exactly the
// mirror's order (head = most recent), pinning both promotion and
// eviction order, and that every resident node is reachable through
// its hash chain.
func checkLRU(t *testing.T, img *mem.Image, _ *heap.Allocator) {
	cfg := lruSizes(olden.SizeTest)

	// Pure-Go replay of the exact get stream.
	r := olden.NewRNG(0x27d4eb2f)
	z := newZipf(r, cfg.keyspace)
	var mirror []uint32 // most recent first
	resident := map[uint32]bool{}
	for i := 0; i < cfg.gets; i++ {
		key := uint32(z.next())*2 + 1
		if resident[key] {
			for j, k := range mirror {
				if k == key {
					mirror = append(mirror[:j], mirror[j+1:]...)
					break
				}
			}
		} else {
			if len(mirror) == cfg.capacity {
				evicted := mirror[len(mirror)-1]
				mirror = mirror[:len(mirror)-1]
				delete(resident, evicted)
			}
			resident[key] = true
		}
		mirror = append([]uint32{key}, mirror...)
	}

	dir := uint32(heap.Base) // directory is the first allocation
	var got []uint32
	for p := img.ReadWord(ir.GlobalBase + luHeadOff); p != 0; p = img.ReadWord(p + luNext) {
		got = append(got, img.ReadWord(p+luKey))
	}
	if len(got) != len(mirror) {
		t.Fatalf("recency list holds %d nodes, want %d", len(got), len(mirror))
	}
	for i := range got {
		if got[i] != mirror[i] {
			t.Fatalf("recency slot %d holds key %d, want %d (eviction/promotion order diverged)",
				i, got[i], mirror[i])
		}
	}

	// Every resident node must be reachable via its hash chain.
	mask := uint32(cfg.buckets - 1)
	for p := img.ReadWord(ir.GlobalBase + luHeadOff); p != 0; p = img.ReadWord(p + luNext) {
		key := img.ReadWord(p + luKey)
		b := lruBucket(key, mask)
		found := false
		for e := img.ReadWord(dir + 4*b); e != 0; e = img.ReadWord(e + luHNext) {
			if e == p {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("resident key %d not reachable through bucket %d", key, b)
		}
	}
}

// checkQuicklist verifies the structural skip pointers: every node's
// skip field targets the node exactly `interval` links ahead (or nil
// within the tail window), under every scheme — the pointers are
// architectural state the program maintains through all the churn.
func checkQuicklist(t *testing.T, img *mem.Image, _ *heap.Allocator) {
	head := uint32(heap.Base) // first allocation survives the churn
	dist := core.DefaultInterval

	var order []uint32
	for p := head; p != 0; p = img.ReadWord(p + qlNext) {
		order = append(order, p)
	}
	for i, p := range order {
		want := uint32(0)
		if i+dist < len(order) {
			want = order[i+dist]
		}
		if got := img.ReadWord(p + qlSkip); got != want {
			t.Fatalf("node %d skip = %#x, want %#x", i, got, want)
		}
	}
}
