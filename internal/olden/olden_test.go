package olden

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/mem"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"bh", "bisort", "em3d", "health", "mst",
		"perimeter", "power", "treeadd", "tsp", "voronoi"}
	suite := Suite()
	if len(suite) != len(want) {
		t.Fatalf("paper suite has %d benchmarks", len(suite))
	}
	for i := range want {
		if suite[i].Name != want[i] {
			t.Fatalf("suite[%d] = %s, want %s", i, suite[i].Name, want[i])
		}
		if suite[i].Extension {
			t.Fatalf("%s wrongly marked as extension", want[i])
		}
	}
	// Extensions exist and are excluded from the paper suite.
	ext := 0
	for _, b := range All() {
		if b.Extension {
			ext++
		}
	}
	if ext != len(All())-len(suite) || ext == 0 {
		t.Fatalf("extension accounting broken: %d extensions, %d total", ext, len(All()))
	}
	for _, b := range All() {
		if b.Kernel == nil || b.Description == "" || b.Structures == "" {
			t.Fatalf("%s: incomplete metadata", b.Name)
		}
		if len(b.Idioms) == 0 {
			t.Fatalf("%s: no idiom characterization", b.Name)
		}
		if b.Traversals <= 0 {
			t.Fatalf("%s: traversal count missing", b.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("health"); !ok {
		t.Fatal("health missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("phantom benchmark")
	}
}

// runKernel drains a kernel and returns its stats.
func runKernel(t *testing.T, b *Benchmark, p Params) ir.Stats {
	t.Helper()
	alloc := heap.New(mem.NewImage())
	g := ir.NewGen(alloc, b.Kernel(p))
	for d := g.Next(); d != nil; d = g.Next() {
	}
	return g.Stats()
}

func TestAllKernelsEmitForAllSchemes(t *testing.T) {
	for _, b := range All() {
		for _, scheme := range core.Schemes() {
			p := Params{Scheme: scheme, Size: SizeTest}
			s := runKernel(t, b, p)
			if s.Total() == 0 {
				t.Errorf("%s/%v: empty stream", b.Name, scheme)
			}
			if s.LDSLoads == 0 {
				t.Errorf("%s/%v: no LDS loads tagged", b.Name, scheme)
			}
		}
	}
}

func TestSchemesPreserveOriginalWork(t *testing.T) {
	// The prefetching transformations add overhead instructions but
	// must not change the original program's instruction stream.
	for _, b := range All() {
		base := runKernel(t, b, Params{Scheme: core.SchemeNone, Size: SizeTest})
		if base.OvhdInsts != 0 {
			t.Errorf("%s: unoptimized run has %d overhead instructions",
				b.Name, base.OvhdInsts)
		}
		for _, scheme := range []core.Scheme{core.SchemeSoftware, core.SchemeCooperative} {
			s := runKernel(t, b, Params{Scheme: scheme, Size: SizeTest})
			if s.OrigInsts != base.OrigInsts {
				t.Errorf("%s/%v: original instructions changed %d -> %d",
					b.Name, scheme, base.OrigInsts, s.OrigInsts)
			}
			if s.OvhdInsts == 0 {
				t.Errorf("%s/%v: no overhead instructions emitted", b.Name, scheme)
			}
		}
		// DBP and hardware leave the code untouched.
		for _, scheme := range []core.Scheme{core.SchemeDBP, core.SchemeHardware} {
			s := runKernel(t, b, Params{Scheme: scheme, Size: SizeTest})
			if s.Total() != base.Total() {
				t.Errorf("%s/%v: instruction count changed", b.Name, scheme)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, b := range All() {
		p := Params{Scheme: core.SchemeCooperative, Size: SizeTest}
		s1 := runKernel(t, b, p)
		s2 := runKernel(t, b, p)
		if s1 != s2 {
			t.Errorf("%s: two identical runs emitted different streams", b.Name)
		}
	}
}

func TestCreationOnlyEmitsNoPrefetches(t *testing.T) {
	for _, b := range All() {
		p := Params{Scheme: core.SchemeSoftware, Size: SizeTest, CreationOnly: true}
		s := runKernel(t, b, p)
		if s.Counts[ir.Prefetch] != 0 {
			t.Errorf("%s: creation-only run emitted %d prefetches",
				b.Name, s.Counts[ir.Prefetch])
		}
	}
}

func TestIdiomVariantsOfHealth(t *testing.T) {
	for _, idiom := range []core.Idiom{core.IdiomQueue, core.IdiomFull, core.IdiomChain, core.IdiomRoot} {
		b, _ := ByName("health")
		p := Params{Scheme: core.SchemeSoftware, Idiom: idiom, Size: SizeTest}
		s := runKernel(t, b, p)
		if s.Counts[ir.Prefetch] == 0 {
			t.Errorf("health/%v emitted no prefetches", idiom)
		}
	}
}

func TestSizesScale(t *testing.T) {
	for _, b := range All() {
		small := runKernel(t, b, Params{Scheme: core.SchemeNone, Size: SizeTest})
		big := runKernel(t, b, Params{Scheme: core.SchemeNone, Size: SizeSmall})
		if big.Total() <= small.Total() {
			t.Errorf("%s: SizeSmall (%d insts) not larger than SizeTest (%d)",
				b.Name, big.Total(), small.Total())
		}
	}
}

func TestDefaultSizeIsFull(t *testing.T) {
	if SizeDefault.String() != "full" {
		t.Fatal("zero-value Size must resolve to the full input")
	}
}

func TestRNGDeterministicAndSpread(t *testing.T) {
	r1, r2 := NewRNG(7), NewRNG(7)
	buckets := map[int]int{}
	for i := 0; i < 1000; i++ {
		a, b := r1.Next(), r2.Next()
		if a != b {
			t.Fatal("rng not deterministic")
		}
		buckets[int(a%10)]++
	}
	for d := 0; d < 10; d++ {
		if buckets[d] < 50 {
			t.Fatalf("rng digit %d appeared only %d/1000 times", d, buckets[d])
		}
	}
}

// TestParseSizeRoundTrip pins ParseSize as the inverse of String, and
// checks that a rejected string is named in the error.
func TestParseSizeRoundTrip(t *testing.T) {
	for _, s := range []Size{SizeTest, SizeSmall, SizeFull, SizeLarge} {
		if got, err := ParseSize(s.String()); err != nil || got != s {
			t.Errorf("ParseSize(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	// SizeDefault prints as the size it runs as.
	if got, err := ParseSize(SizeDefault.String()); err != nil || got != SizeFull {
		t.Errorf("ParseSize(%q) = %v, %v; want %v", SizeDefault.String(), got, err, SizeFull)
	}
	for _, bad := range []string{"", "FULL", "size(9)", "huge"} {
		if _, err := ParseSize(bad); err == nil || !strings.Contains(err.Error(), strconv.Quote(bad)) {
			t.Errorf("ParseSize(%q) error = %v, want one naming the input", bad, err)
		}
	}
}
