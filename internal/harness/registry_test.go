package harness

import (
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/olden"
)

// names returns the Name of each benchmark, in order.
func names(bs []*olden.Benchmark) string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	return strings.Join(out, " ")
}

// TestWorkloadRegistryPinned fixes the workload listing: the order
// `jppsim -list` prints, the paper's suite and the kernels family.
// Every listed name must resolve to the very descriptor the listing
// holds.
func TestWorkloadRegistryPinned(t *testing.T) {
	all := olden.All()
	const wantAll = "bh bisort btree em3d health mst perimeter power spmv treeadd tsp voronoi " +
		"bptree hashchurn lru multilist quicklist skiplist txmix"
	if got := names(all); got != wantAll {
		t.Errorf("listing:\n got %s\nwant %s", got, wantAll)
	}
	const wantSuite = "bh bisort em3d health mst perimeter power treeadd tsp voronoi"
	if got := names(olden.Suite()); got != wantSuite {
		t.Errorf("olden.Suite:\n got %s\nwant %s", got, wantSuite)
	}
	const wantKernels = "bptree hashchurn lru multilist quicklist skiplist txmix"
	if got := names(kernels.All()); got != wantKernels {
		t.Errorf("kernels.All:\n got %s\nwant %s", got, wantKernels)
	}
	for _, b := range all {
		if got, ok := BenchByName(b.Name); !ok || got != b {
			t.Errorf("BenchByName(%q) = %p, %v; want %p", b.Name, got, ok, b)
		}
	}
}

// TestRegisterRejectsDuplicates registers a second descriptor under
// names already taken, from either family: each must panic and leave
// the registry as it was, so no workload can shadow another.
func TestRegisterRejectsDuplicates(t *testing.T) {
	cases := []struct {
		family olden.Family
		name   string
	}{
		{olden.FamilyKernels, "health"}, // a kernel shadowing an Olden benchmark
		{olden.FamilyOlden, "lru"},      // an Olden benchmark shadowing a kernel
		{olden.FamilyOlden, "health"},
		{olden.FamilyKernels, "lru"},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%d, %q) did not panic", c.family, c.name)
				}
			}()
			olden.Register(c.family, &olden.Benchmark{Name: c.name})
		}()
	}
	if n := len(olden.All()); n != 19 {
		t.Errorf("registry holds %d workloads after rejected registrations, want 19", n)
	}
	for _, c := range cases {
		b, _ := BenchByName(c.name)
		if b.Description == "" {
			t.Errorf("%s: descriptor replaced by a rejected registration", c.name)
		}
	}
}
