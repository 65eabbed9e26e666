package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/olden"
)

const emissionDigestsFile = "testdata/emission_digests.json"

// emissionDigest is one stream's pinned fingerprint: its length and a
// hash over every DynInst field in order plus the generator's Stats.
type emissionDigest struct {
	Insts  uint64 `json:"insts"`
	Digest string `json:"digest"`
}

// emissionParams lists every parameter set whose emitted stream is
// pinned for b: scheme none, then sw and coop with each applicable
// idiom, each with and without CreationOnly.
func emissionParams(b *olden.Benchmark, size olden.Size) []olden.Params {
	out := []olden.Params{{Scheme: core.SchemeNone, Size: size}}
	for _, s := range []core.Scheme{core.SchemeSoftware, core.SchemeCooperative} {
		for _, idiom := range b.Idioms {
			for _, creation := range []bool{false, true} {
				out = append(out, olden.Params{Scheme: s, Idiom: idiom, Size: size, CreationOnly: creation})
			}
		}
	}
	return out
}

func emissionKey(b string, p olden.Params) string {
	k := fmt.Sprintf("%s/%v/%v/%v", b, p.Size, p.Scheme, p.Idiom)
	if p.CreationOnly {
		k += "/creation"
	}
	return k
}

// mix folds one word into an FNV-1a-style 64-bit hash.
func mix(h, x uint64) uint64 { return (h ^ x) * 1099511628211 }

// drainDigest runs kernel to completion on a fresh machine image and
// fingerprints its stream.
func drainDigest(kernel func(*ir.Asm)) emissionDigest {
	gen := ir.NewGen(heap.New(mem.NewImage()), kernel)
	h := uint64(14695981039346656037)
	var n uint64
	for {
		batch, _ := gen.NextBatch()
		if batch == nil {
			break
		}
		for i := range batch {
			d := &batch[i]
			var taken uint64
			if d.Taken {
				taken = 1
			}
			h = mix(h, d.Seq)
			h = mix(h, d.Src1)
			h = mix(h, d.Src2)
			h = mix(h, uint64(d.PC))
			h = mix(h, uint64(d.Addr))
			h = mix(h, uint64(d.Value))
			h = mix(h, uint64(d.BaseValue))
			h = mix(h, uint64(d.Target))
			h = mix(h, uint64(d.Class))
			h = mix(h, uint64(d.Flags))
			h = mix(h, taken)
		}
		n += uint64(len(batch))
	}
	s := gen.Stats()
	for _, c := range s.Counts {
		h = mix(h, c)
	}
	for _, x := range []uint64{s.OrigInsts, s.OvhdInsts, s.LDSLoads, s.OtherLoads,
		s.BlocksCaptured, s.ReplayedInsts, s.ReplayAborts} {
		h = mix(h, x)
	}
	return emissionDigest{Insts: n, Digest: fmt.Sprintf("%016x", h)}
}

// TestEmissionDigests pins the instruction stream every workload emits
// under every software-visible configuration: scheme none, and the
// software and cooperative forms of each applicable idiom with and
// without CreationOnly, at the test and small sizes.  The stats goldens
// and BENCH_jpp.json pin only each workload's default idiom, so this is
// the check that a refactor of the emission code changes no
// instruction's site, order, operands or flags.  -update rewrites the
// digest file.
func TestEmissionDigests(t *testing.T) {
	got := map[string]emissionDigest{}
	for _, size := range []olden.Size{olden.SizeTest, olden.SizeSmall} {
		for _, b := range olden.All() {
			for _, p := range emissionParams(b, size) {
				got[emissionKey(b.Name, p)] = drainDigest(b.Kernel(p))
			}
		}
	}
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(emissionDigestsFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(filepath.FromSlash(emissionDigestsFile))
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	var want map[string]emissionDigest
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		g, ok := got[k]
		switch {
		case !ok:
			t.Errorf("%s: pinned stream no longer generated", k)
		case g != w:
			t.Errorf("%s: emitted %d insts digest %s, pinned %d insts digest %s",
				k, g.Insts, g.Digest, w.Insts, w.Digest)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: stream not pinned (run with -update to add it)", k)
		}
	}
}
