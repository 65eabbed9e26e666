package olden

import (
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/mem"
)

// Tests for the section 6 extension workloads (btree, spmv).

func TestSpmvComputesTheProduct(t *testing.T) {
	b, _ := ByName("spmv")
	for _, scheme := range []core.Scheme{core.SchemeNone, core.SchemeSoftware, core.SchemeHardware} {
		img, _ := runForImage(t, b, Params{Scheme: scheme, Size: SizeTest})
		cfg := spmvSizes(SizeTest)
		// Replay the deterministic build to compute a reference.
		r := NewRNG(0x1b873593)
		x := make([]uint32, cfg.rows)
		for i := range x {
			x[i] = r.Next() % 100
		}
		type elem struct{ v, col uint32 }
		rows := make([][]elem, cfg.rows)
		for i := range rows {
			for e := 0; e < cfg.nnzPerRow; e++ {
				v := r.Next()%50 + 1
				c := uint32(4 * r.Intn(cfg.rows))
				// Elements are pushed at the head, so traversal order is
				// reversed; addition is commutative, order is irrelevant.
				rows[i] = append(rows[i], elem{v: v, col: c / 4})
			}
		}
		xBase := uint32(0x2000)
		yBase := xBase + uint32(4*cfg.rows)
		for i := range rows {
			var want uint32
			for _, e := range rows[i] {
				want += e.v * x[e.col]
			}
			got := img.ReadWord(ir.GlobalBase + yBase + uint32(4*i))
			if got != want {
				t.Fatalf("%v: y[%d] = %d, want %d", scheme, i, got, want)
			}
		}
	}
}

func TestBtreeLeafChainComplete(t *testing.T) {
	b, _ := ByName("btree")
	img, _ := runForImage(t, b, Params{Scheme: core.SchemeCooperative, Size: SizeTest})
	cfg := btreeSizes(SizeTest)
	bulkLeaves := (cfg.keys + btFanout - 1) / btFanout
	// Leaves are the first allocations of the first (leaf) arena; the
	// split churn appends more, so the chain is at least the bulk set.
	first := uint32(heap.Base)
	chain := walkList(img, first, btNext, 4*bulkLeaves)
	if len(chain) < bulkLeaves {
		t.Fatalf("leaf chain has %d leaves, want >= %d", len(chain), bulkLeaves)
	}
	// Keys along the chain stay sorted through splits, and leaf counts
	// stay within the fanout.
	last := uint32(0)
	for _, leaf := range chain {
		k := img.ReadWord(leaf + btKeys)
		if k < last {
			t.Fatalf("leaf chain out of order: %d after %d", k, last)
		}
		last = k
		if c := img.ReadWord(leaf + btCount); c == 0 || c > btFanout {
			t.Fatalf("leaf %#x count %d out of range", leaf, c)
		}
	}
}

func TestBtreeJumpPointersLandInLeaves(t *testing.T) {
	b, _ := ByName("btree")
	// A short interval so the tiny test input primes the queue.
	img, alloc := runForImage(t, b, Params{Scheme: core.SchemeSoftware, Size: SizeTest, Interval: 1})
	// Walk the whole leaf chain (bulk leaves + split leaves).
	first := uint32(heap.Base)
	found := 0
	for _, p := range walkList(img, first, btNext, 1<<12) {
		if j := img.ReadWord(p + btJump); j != 0 {
			if !alloc.Contains(j) {
				t.Fatalf("leaf %#x jump pointer %#x dangles", p, j)
			}
			found++
		}
	}
	if found == 0 {
		t.Fatal("range scans installed no jump pointers")
	}
}

func TestExtensionsRunUnderAllSchemes(t *testing.T) {
	for _, name := range []string{"btree", "spmv"} {
		b, ok := ByName(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		if !b.Extension {
			t.Fatalf("%s must be marked as an extension", name)
		}
		for _, scheme := range core.Schemes() {
			s := runKernel(t, b, Params{Scheme: scheme, Size: SizeTest})
			if s.Total() == 0 || s.LDSLoads == 0 {
				t.Errorf("%s/%v: degenerate stream", name, scheme)
			}
		}
	}
}

func TestExtensionsExcludedFromSuite(t *testing.T) {
	for _, b := range Suite() {
		if b.Name == "btree" || b.Name == "spmv" {
			t.Fatalf("extension %s leaked into the paper suite", b.Name)
		}
	}
}

// Ensure runForImage is shared correctly across test files.
var _ = func() *mem.Image { return nil }
