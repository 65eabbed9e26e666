package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/olden"
)

// TestPrefetchingPreservesArchitecturalState is the differential
// correctness gate: for every kernel of the suite, every prefetching
// scheme (DBP, software, cooperative, hardware) and the perfect-memory
// decomposition passes must leave the simulated heap's architectural
// state — every live block's payload — byte-identical to the
// no-prefetch baseline.  Prefetching is allowed to write jump pointers
// into block padding and scheme-private globals, and nothing else.
func TestPrefetchingPreservesArchitecturalState(t *testing.T) {
	t.Parallel()
	for _, b := range olden.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			run := func(spec Spec) Result {
				res, err := Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			spec := func(scheme core.Scheme) Spec {
				return Spec{
					Bench:  b.Name,
					Params: olden.Params{Scheme: scheme, Size: olden.SizeTest},
				}
			}

			base := run(spec(core.SchemeNone))
			if base.Heap.Allocs() == 0 {
				t.Fatalf("%s allocated nothing; checksum would be vacuous", b.Name)
			}
			want := base.Heap.PayloadChecksum()

			for _, scheme := range core.Schemes() {
				if scheme == core.SchemeNone {
					continue
				}
				res := run(spec(scheme))
				if got := res.Heap.PayloadChecksum(); got != want {
					t.Errorf("scheme %v changed architectural state: checksum %#x, want %#x",
						scheme, got, want)
				}
			}

			// The decomposition's perfect-data-memory pass must also be
			// functionally identical (it shares the instruction stream).
			for _, scheme := range []core.Scheme{core.SchemeNone, core.SchemeCooperative} {
				res := run(perfectSpec(spec(scheme)))
				if got := res.Heap.PayloadChecksum(); got != want {
					t.Errorf("perfect-memory %v pass changed architectural state: checksum %#x, want %#x",
						scheme, got, want)
				}
			}
		})
	}
}

// TestChecksumDetectsPayloadChange guards the differential test's own
// sensitivity: the checksum must actually react to a payload word
// changing, or the test above proves nothing.
func TestChecksumDetectsPayloadChange(t *testing.T) {
	res, err := Run(Spec{
		Bench:  "treeadd",
		Params: olden.Params{Scheme: core.SchemeNone, Size: olden.SizeTest},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := res.Heap.PayloadChecksum()
	// Flip one payload word of some live block.
	img := res.Heap.Image()
	var flipped bool
	for addr := uint32(0x1000_0000); addr < 0x1000_1000; addr += 4 {
		if res.Heap.BlockSize(addr) != 0 {
			img.WriteWord(addr, img.ReadWord(addr)^1)
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("no live block found in the first heap page")
	}
	if res.Heap.PayloadChecksum() == before {
		t.Fatal("checksum did not change after payload mutation")
	}
}
