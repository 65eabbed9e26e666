package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/olden"
)

// snapshotJSON is a run's snapshot as jppsim -stats-json prints it.
func snapshotJSON(t *testing.T, r Result) []byte {
	t.Helper()
	b, err := json.Marshal(r.Stats)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkPairedMatchesSolo decomposes specs in one batch and checks each
// slot against solo runs of the spec and of its perfect pass: the
// realistic snapshot byte for byte, and the compute cycles.
func checkPairedMatchesSolo(t *testing.T, specs []Spec) []DecompItem {
	t.Helper()
	items := DecomposeBatch(specs, 2)
	for i, spec := range specs {
		name := spec.Bench + "/" + spec.Params.Scheme.String()
		if items[i].Err != nil {
			t.Fatalf("%s: %v", name, items[i].Err)
		}
		full, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		perfect, err := Run(perfectSpec(spec))
		if err != nil {
			t.Fatal(err)
		}
		d := items[i].Decomp
		if got, want := snapshotJSON(t, d.Full), snapshotJSON(t, full); !bytes.Equal(got, want) {
			t.Errorf("%s: paired snapshot differs from Run's:\n%s\n%s", name, got, want)
		}
		if d.Total != full.CPU.Cycles || d.Compute != perfect.CPU.Cycles {
			t.Errorf("%s: total=%d compute=%d, solo runs %d and %d",
				name, d.Total, d.Compute, full.CPU.Cycles, perfect.CPU.Cycles)
		}
	}
	return items
}

// TestPairedPassesMatchSolo is the equivalence contract of paired
// decomposition jobs: a realistic pass and the perfect pass riding its
// stream give exactly what two solo runs give.  The test leg covers
// every registered workload under every scheme.  The small leg runs
// health under coop, where the prefetch buffer fills and hits, so the
// engine's image reads on a shared stream are exercised (at the test
// size coop fills no buffer line).
func TestPairedPassesMatchSolo(t *testing.T) {
	t.Run("test", func(t *testing.T) {
		var specs []Spec
		for _, b := range olden.All() {
			for _, scheme := range core.Schemes() {
				specs = append(specs, testSpec(b.Name, scheme))
			}
		}
		checkPairedMatchesSolo(t, specs)
	})
	t.Run("small", func(t *testing.T) {
		spec := testSpec("health", core.SchemeCooperative)
		spec.Params.Size = olden.SizeSmall
		d := checkPairedMatchesSolo(t, []Spec{spec})[0].Decomp
		if c := d.Full.Cache; c.PBFills == 0 || c.PBHits == 0 {
			t.Errorf("health/coop@small: %d buffer fills and %d hits; the leg must exercise the buffer",
				c.PBFills, c.PBHits)
		}
	})
}

// TestPairedPassDetachesAtMaxCycles: a pass that stops early detaches
// from the shared stream, and the other pass runs on.  MaxCycles sits
// between the perfect pass's cycles and the realistic pass's, so only
// the realistic pass is truncated; both must equal their solo runs.
func TestPairedPassDetachesAtMaxCycles(t *testing.T) {
	spec := testSpec("health", core.SchemeNone)
	perfect, err := Run(perfectSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	cc := cpu.Defaults()
	cc.MaxCycles = perfect.CPU.Cycles + 1
	spec.CPU = &cc
	full, fullP := runPair(spec, perfectSpec(spec))
	for _, c := range []struct {
		name string
		got  RunItem
		spec Spec
	}{{"realistic", full, spec}, {"perfect", fullP, perfectSpec(spec)}} {
		if c.got.Err != nil {
			t.Fatalf("%s: %v", c.name, c.got.Err)
		}
		want, err := Run(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := snapshotJSON(t, c.got.Result), snapshotJSON(t, want); !bytes.Equal(got, want) {
			t.Errorf("%s: snapshot differs from Run's:\n%s\n%s", c.name, got, want)
		}
	}
	if !full.Result.CPU.Truncated || fullP.Result.CPU.Truncated {
		t.Fatalf("truncated: realistic %v, perfect %v; want only the realistic pass",
			full.Result.CPU.Truncated, fullP.Result.CPU.Truncated)
	}
}

// TestPairedKernelPanicFailsBothPasses: a kernel that panics mid-stream
// fails both passes of its job, and the neighbouring slots of the batch
// are intact, serially and on two workers.
func TestPairedKernelPanicFailsBothPasses(t *testing.T) {
	full, perfect := runPair(panicSpec(), perfectSpec(panicSpec()))
	for name, it := range map[string]RunItem{"realistic": full, "perfect": perfect} {
		if it.Err == nil || !strings.Contains(it.Err.Error(), "injected kernel panic") {
			t.Errorf("%s pass: error %v, want the kernel panic", name, it.Err)
		}
	}
	for _, workers := range []int{1, 2} {
		specs := []Spec{
			testSpec("health", core.SchemeNone),
			panicSpec(),
			testSpec("mst", core.SchemeHardware),
		}
		items := DecomposeBatch(specs, workers)
		if items[1].Err == nil || !strings.Contains(items[1].Err.Error(), "injected kernel panic") {
			t.Errorf("workers=%d: panic slot error %v, want the kernel panic", workers, items[1].Err)
		}
		for _, i := range []int{0, 2} {
			want, err := Decompose(specs[i])
			if err != nil {
				t.Fatal(err)
			}
			got := items[i]
			if got.Err != nil || got.Decomp.Total != want.Total || got.Decomp.Compute != want.Compute {
				t.Errorf("workers=%d slot %d: %+v (err %v), want total=%d compute=%d",
					workers, i, got.Decomp, got.Err, want.Total, want.Compute)
			}
		}
	}
}

// TestRunRejectsIntervalOutOfRange: every scheme rejects a jump-pointer
// interval outside [0, core.MaxInterval] with an error, in Run and in a
// decomposition, rather than panicking (hw) or running a queue that
// overruns its ring (sw, coop).
func TestRunRejectsIntervalOutOfRange(t *testing.T) {
	for _, c := range []struct {
		interval int
		ok       bool
	}{
		{-1, false},
		{0, true},
		{1, true},
		{core.MaxInterval, true},
		{core.MaxInterval + 1, false},
		{40, false},
	} {
		for _, scheme := range core.Schemes() {
			spec := testSpec("health", scheme)
			spec.Params.Interval = c.interval
			_, err := Run(spec)
			if (err == nil) != c.ok {
				t.Errorf("%v/i%d: Run error %v, want ok=%v", scheme, c.interval, err, c.ok)
			}
			if c.ok {
				continue
			}
			if _, err := Decompose(spec); err == nil {
				t.Errorf("%v/i%d: Decompose accepted the interval", scheme, c.interval)
			}
		}
	}
}
