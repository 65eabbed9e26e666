package olden

import (
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/mem"
)

// Functional-correctness tests: the kernels execute for real against
// the simulated heap, so their data structures can be validated by
// walking the memory image after the run.  Prefetching transformations
// must never change program results.

// runForImage drains a kernel and returns the memory image and heap.
func runForImage(t *testing.T, b *Benchmark, p Params) (*mem.Image, *heap.Allocator) {
	t.Helper()
	alloc := heap.New(mem.NewImage())
	g := ir.NewGen(alloc, b.Kernel(p))
	for d := g.Next(); d != nil; d = g.Next() {
	}
	return alloc.Image(), alloc
}

func TestTreeaddComputesTheSum(t *testing.T) {
	b, _ := ByName("treeadd")
	for _, scheme := range core.Schemes() {
		img, _ := runForImage(t, b, Params{Scheme: scheme, Size: SizeTest})
		// The kernel stores the grand total at GlobalBase+0x100.  Sizes
		// and the RNG are deterministic: recompute the expected value.
		depth, passes := treeaddSizes(SizeTest)
		r := NewRNG(0xabcdef)
		var sum uint32
		var count func(d int)
		count = func(d int) {
			sum += r.Next() % 100
			if d > 1 {
				count(d - 1)
				count(d - 1)
			}
		}
		count(depth)
		want := sum * uint32(passes)
		got := img.ReadWord(ir.GlobalBase + 0x100)
		if got != want {
			t.Fatalf("%v: treeadd total = %d, want %d", scheme, got, want)
		}
	}
}

// walkList follows forward pointers from a list head in the image.
func walkList(img *mem.Image, head uint32, next uint32, limit int) []uint32 {
	var out []uint32
	for p := head; p != 0 && len(out) < limit; p = img.ReadWord(p + next) {
		out = append(out, p)
	}
	return out
}

func TestHealthListsSurviveChurn(t *testing.T) {
	b, _ := ByName("health")
	for _, scheme := range []core.Scheme{core.SchemeNone, core.SchemeSoftware, core.SchemeHardware} {
		img, alloc := runForImage(t, b, Params{Scheme: scheme, Size: SizeTest})
		cfg := healthSizes(SizeTest)
		villages := 0
		for l := 0; l <= cfg.levels; l++ {
			n := 1
			for i := 0; i < l; i++ {
				n *= 4
			}
			villages += n
		}
		// Walk the village chain from the first village (the first
		// village block is the first allocation of the first arena).
		// Arena layout makes it hard to find blind, so instead verify a
		// structural invariant over every village we can reach from any
		// list node: each waiting list is a NUL-terminated chain of
		// live blocks whose patients are live blocks.
		// Conservation: churn replaces every removal with an admission,
		// so the total patient population is villages*initPerV.
		total := 0
		// Villages were allocated one per arena in post-order; scan the
		// heap for village blocks via their arena-first-block property:
		// instead, exploit determinism: rebuild the allocation sequence.
		alloc2 := heap.New(mem.NewImage())
		var heads []uint32
		var build func(level int)
		build = func(level int) {
			if level > 0 {
				for i := 0; i < 4; i++ {
					build(level - 1)
				}
			}
			ar := alloc2.NewArena()
			heads = append(heads, uint32(alloc2.AllocIn(ar, 12)))
		}
		build(cfg.levels)
		if len(heads) != villages {
			t.Fatalf("village replay mismatch: %d vs %d", len(heads), villages)
		}
		for _, v := range heads {
			l := walkList(img, img.ReadWord(v+hvWaiting), hlForward, 10000)
			total += len(l)
			for _, node := range l {
				pt := img.ReadWord(node + hlPatient)
				if !alloc.Contains(pt) {
					t.Fatalf("%v: node %#x has dangling patient %#x", scheme, node, pt)
				}
			}
		}
		want := villages * cfg.initPerV
		if total != want {
			t.Fatalf("%v: %d patients across lists, want %d (conservation)", scheme, total, want)
		}
	}
}

// TestHealthStatWordSurvivesLongIntervals: the software jump-pointer
// queue must not overwrite health's statistics word at any interval up
// to core.MaxInterval.  The word is a pure function of the patients
// visited, so every queue-based scheme must leave it as the baseline
// does.  Before the queue moved clear of the word, intervals 17-32
// wrote ring slots over it (at full size the corrupted queue then freed
// an unallocated address).
func TestHealthStatWordSurvivesLongIntervals(t *testing.T) {
	b, _ := ByName("health")
	img, _ := runForImage(t, b, Params{Scheme: core.SchemeNone, Size: SizeTest})
	want := img.ReadWord(ir.GlobalBase + hgStat)
	for _, interval := range []int{8, 16, 17, 24, core.MaxInterval} {
		for _, scheme := range []core.Scheme{core.SchemeSoftware, core.SchemeCooperative} {
			img, _ := runForImage(t, b, Params{Scheme: scheme, Size: SizeTest, Interval: interval})
			if got := img.ReadWord(ir.GlobalBase + hgStat); got != want {
				t.Errorf("%v/i%d: statistics word %#x, want %#x", scheme, interval, got, want)
			}
		}
	}
}

func TestBisortPreservesTreePopulation(t *testing.T) {
	b, _ := ByName("bisort")
	img, alloc := runForImage(t, b, Params{Scheme: core.SchemeNone, Size: SizeTest})
	depth, _ := bisortSizes(SizeTest)
	wantNodes := 1<<depth - 1
	// The tree root is the first allocation; count reachable nodes.
	root := uint32(heap.Base)
	seen := map[uint32]bool{}
	var count func(n uint32) int
	count = func(n uint32) int {
		if n == 0 || seen[n] || !alloc.Contains(n) {
			return 0
		}
		seen[n] = true
		return 1 + count(img.ReadWord(n+bsLeft)) + count(img.ReadWord(n+bsRight))
	}
	if got := count(root); got != wantNodes {
		t.Fatalf("bisort tree has %d reachable nodes, want %d (swaps must not lose subtrees)",
			got, wantNodes)
	}
}

func TestTspTourStaysClosedAndComplete(t *testing.T) {
	b, _ := ByName("tsp")
	for _, scheme := range []core.Scheme{core.SchemeNone, core.SchemeSoftware} {
		img, _ := runForImage(t, b, Params{Scheme: scheme, Size: SizeTest})
		cities := tspSizes(SizeTest)
		// First city block = first allocation.
		start := uint32(heap.Base)
		seen := map[uint32]bool{}
		p := start
		steps := 0
		for !seen[p] && steps <= cities+1 {
			seen[p] = true
			p = img.ReadWord(p + tcNext)
			steps++
			if p == 0 {
				t.Fatalf("%v: tour broken after %d steps", scheme, steps)
			}
		}
		if len(seen) != cities {
			t.Fatalf("%v: tour visits %d of %d cities", scheme, len(seen), cities)
		}
		if p != start {
			t.Fatalf("%v: tour does not close back to the start", scheme)
		}
	}
}

func TestEm3dGraphWellFormed(t *testing.T) {
	b, _ := ByName("em3d")
	img, alloc := runForImage(t, b, Params{Scheme: core.SchemeCooperative, Size: SizeTest})
	cfg := em3dSizes(SizeTest)
	// E-side nodes: first allocations of the first arena (sequential).
	first := uint32(heap.Base)
	nodes := walkList(img, first, emNext, cfg.nodes+1)
	if len(nodes) != cfg.nodes {
		t.Fatalf("E-side list has %d nodes, want %d", len(nodes), cfg.nodes)
	}
	for _, n := range nodes {
		for k := 0; k < emK; k++ {
			from := img.ReadWord(n + uint32(emFrom+4*k))
			if !alloc.Contains(from) {
				t.Fatalf("node %#x from[%d] = %#x is not a live node", n, k, from)
			}
		}
	}
}

func TestMstResultSchemeInvariant(t *testing.T) {
	// The MST computation's control flow is driven by loaded weights;
	// whatever the prefetching scheme, the same tree must be selected.
	// The per-scheme instruction streams differ, but the original
	// instructions (and hence the sequence of weight loads) must match.
	b, _ := ByName("mst")
	var ref ir.Stats
	for i, scheme := range core.Schemes() {
		alloc := heap.New(mem.NewImage())
		g := ir.NewGen(alloc, b.Kernel(Params{Scheme: scheme, Size: SizeTest}))
		for d := g.Next(); d != nil; d = g.Next() {
		}
		s := g.Stats()
		if i == 0 {
			ref = s
			continue
		}
		if s.OrigInsts != ref.OrigInsts {
			t.Fatalf("%v: original instruction count %d differs from baseline %d — "+
				"the transformation changed program behaviour", scheme, s.OrigInsts, ref.OrigInsts)
		}
	}
}

func TestPerimeterJumpPointersFollowBuildOrder(t *testing.T) {
	b, _ := ByName("perimeter")
	img, alloc := runForImage(t, b, Params{Scheme: core.SchemeSoftware, Size: SizeTest})
	// Software queue jumping installed pointers during the build: every
	// jump pointer must reference a live node (the node allocated
	// `interval` allocations later).
	// Nodes are class-32 blocks allocated back to back in arena 0.
	root := uint32(heap.Base)
	count, ok := 0, 0
	for p := root; alloc.Contains(p); p += 32 {
		if alloc.BlockSize(p) != 32 {
			break
		}
		count++
		if j := img.ReadWord(p + pqJump); j != 0 {
			if !alloc.Contains(j) {
				t.Fatalf("node %#x jump pointer %#x dangles", p, j)
			}
			ok++
		}
	}
	if count == 0 || ok == 0 {
		t.Fatalf("no jump pointers found (%d nodes scanned)", count)
	}
}
