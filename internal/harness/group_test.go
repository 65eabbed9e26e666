package harness

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/heap"
	"repro/internal/mem"
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

// artifactSet is the pass list one artifact runs: its spec set, laid
// out by decompPasses when the artifact decomposes.
type artifactSet struct {
	id     string
	passes []Spec
}

// artifactSets returns the pass lists of the six artifacts the
// paper-artifacts benchmark regenerates, at size.
func artifactSets(size olden.Size) []artifactSet {
	decomposed := func(specs []Spec) []Spec {
		passes, _, _ := decompPasses(specs)
		return passes
	}
	_, fig4 := fig4Specs(ExpConfig{Size: size})
	_, fig7 := fig7Specs(size)
	return []artifactSet{
		{"table1", decomposed(table1Specs(olden.Suite(), size))},
		{"fig4", decomposed(fig4)},
		{"fig5", decomposed(schemeSweep(olden.Suite(), size))},
		{"fig6", schemeSweep(olden.Suite(), size)},
		{"fig7", decomposed(fig7)},
		{"costs", costsSpecs(costsBenches, size)},
	}
}

// checkGroupsMatchSolo runs passes as planGroups groups them, one
// runGroup per group on every host core, and checks every pass against
// a solo RunGuarded: the snapshot byte for byte and the heap payload.
// It returns the grouped results, which hold statistics only.
func checkGroupsMatchSolo(t *testing.T, passes []Spec) []RunItem {
	t.Helper()
	groups := planGroups(passes)
	got, want := make([]RunItem, len(passes)), make([]RunItem, len(passes))
	gotSum, wantSum := make([]uint64, len(passes)), make([]uint64, len(passes))
	forEach(len(groups), 0, func(g int) {
		group := make([]Spec, len(groups[g]))
		for i, p := range groups[g] {
			group[i] = passes[p]
		}
		for i, it := range runGroup(group) {
			p := groups[g][i]
			solo, err := RunGuarded(passes[p])
			if it.Err == nil && err == nil {
				gotSum[p], wantSum[p] = it.Result.Heap.PayloadChecksum(), solo.Heap.PayloadChecksum()
			}
			got[p], want[p] = slot(it.Result, it.Err), slot(solo, err)
		}
	})
	for i, s := range passes {
		name := s.Bench + "/" + s.Params.Scheme.String()
		if s.Mem != nil && s.Mem.PerfectData {
			name += "/perfect"
		}
		if got[i].Err != nil || want[i].Err != nil {
			t.Errorf("%s: grouped error %v, solo error %v", name, got[i].Err, want[i].Err)
			continue
		}
		if g, w := snapshotJSON(t, got[i].Result), snapshotJSON(t, want[i].Result); !bytes.Equal(g, w) {
			t.Errorf("%s: grouped snapshot differs from the solo run's:\n%s\n%s", name, g, w)
		}
		if gotSum[i] != wantSum[i] {
			t.Errorf("%s: grouped heap payload %#x, solo %#x", name, gotSum[i], wantSum[i])
		}
	}
	return got
}

// TestGroupedPassesMatchSolo is the equivalence contract of stream
// groups: every pass of a group gives exactly what a solo run gives.
// The test leg covers the six artifacts' pass lists and every
// registered workload's decomposition under every scheme.  The small
// leg covers passes whose engines do more than at the test size, where
// cooperative JPP fills no prefetch-buffer line: Figure 7's pass list,
// whose cooperative passes must fill and hit the buffer, and hashchurn
// under none, dbp and hw, which frees and reuses blocks whose padding
// holds hardware jump pointers.  Hashchurn runs in Figure 5's order,
// where the hw pass runs alone, and with hw first, where it shares its
// kernel execution with the engine-less passes.
func TestGroupedPassesMatchSolo(t *testing.T) {
	t.Run("test", func(t *testing.T) {
		for _, set := range artifactSets(olden.SizeTest) {
			t.Run(set.id, func(t *testing.T) {
				checkGroupsMatchSolo(t, set.passes)
			})
		}
		var specs []Spec
		for _, b := range olden.All() {
			for _, scheme := range core.Schemes() {
				specs = append(specs, testSpec(b.Name, scheme))
			}
		}
		passes, _, _ := decompPasses(specs)
		checkGroupsMatchSolo(t, passes)
	})
	t.Run("small", func(t *testing.T) {
		_, fig7 := fig7Specs(olden.SizeSmall)
		passes, _, _ := decompPasses(fig7)
		for i, it := range checkGroupsMatchSolo(t, passes) {
			if passes[i].Params.Scheme != core.SchemeCooperative || passes[i].Mem.PerfectData {
				continue
			}
			if c := it.Result.Cache; c.PBFills == 0 || c.PBHits == 0 {
				t.Errorf("health/coop/i%d@small: %d buffer fills and %d hits; the leg must exercise the buffer",
					passes[i].Params.Interval, c.PBFills, c.PBHits)
			}
		}
		none, dbp, hw := core.SchemeNone, core.SchemeDBP, core.SchemeHardware
		for _, order := range [][]core.Scheme{{none, dbp, hw}, {hw, none, dbp}} {
			var specs []Spec
			for _, scheme := range order {
				s := testSpec("hashchurn", scheme)
				s.Params.Size = olden.SizeSmall
				specs = append(specs, s)
			}
			passes, _, _ := decompPasses(specs)
			checkGroupsMatchSolo(t, passes)
		}
	})
}

// TestPairedPassDetachesAtMaxCycles: a pass that stops early detaches
// from the shared stream, and the other passes of its group run on.
// MaxCycles sits between the perfect pass's cycles and the realistic
// passes', so only the realistic passes are truncated; every pass must
// equal its solo run.
func TestPairedPassDetachesAtMaxCycles(t *testing.T) {
	spec := testSpec("health", core.SchemeNone)
	perfect, err := Run(perfectSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	cc := cpu.Defaults()
	cc.MaxCycles = perfect.CPU.Cycles + 1
	spec.CPU = &cc
	dbpSpec := spec
	dbpSpec.Params.Scheme = core.SchemeDBP
	passes := []Spec{spec, dbpSpec, perfectSpec(spec)}
	got := runGroup(passes)
	for i, s := range passes {
		if got[i].Err != nil {
			t.Fatalf("pass %d: %v", i, got[i].Err)
		}
		want, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := snapshotJSON(t, got[i].Result), snapshotJSON(t, want); !bytes.Equal(g, w) {
			t.Errorf("pass %d: snapshot differs from Run's:\n%s\n%s", i, g, w)
		}
		if trunc, perfect := got[i].Result.CPU.Truncated, s.Mem != nil; trunc == perfect {
			t.Errorf("pass %d: truncated %v; want only the realistic passes truncated", i, trunc)
		}
	}
}

// TestPairedKernelPanicFailsBothPasses: a kernel that panics mid-stream
// fails every pass of its group, and the neighbouring groups of the
// batch are intact, serially and on two workers.
func TestPairedKernelPanicFailsBothPasses(t *testing.T) {
	engined := panicSpec()
	engined.Params.Scheme = core.SchemeDBP
	group := []Spec{panicSpec(), perfectSpec(panicSpec()), engined}
	for i, it := range runGroup(group) {
		if it.Err == nil || !strings.Contains(it.Err.Error(), "injected kernel panic") {
			t.Errorf("pass %d: error %v, want the kernel panic", i, it.Err)
		}
	}
	passes := append([]Spec{testSpec("health", core.SchemeNone)}, group...)
	passes = append(passes, testSpec("mst", core.SchemeHardware))
	groups := [][]int{{0}, {1, 2, 3}, {4}}
	for _, workers := range []int{1, 2} {
		items := runPlan(passes, groups, workers)
		for _, i := range groups[1] {
			if items[i].Err == nil || !strings.Contains(items[i].Err.Error(), "injected kernel panic") {
				t.Errorf("workers=%d: pass %d error %v, want the kernel panic", workers, i, items[i].Err)
			}
		}
		for _, i := range []int{0, 4} {
			want, err := Run(passes[i])
			if err != nil {
				t.Fatal(err)
			}
			if items[i].Err != nil {
				t.Fatalf("workers=%d pass %d: %v", workers, i, items[i].Err)
			}
			if g, w := snapshotJSON(t, items[i].Result), snapshotJSON(t, want); !bytes.Equal(g, w) {
				t.Errorf("workers=%d pass %d: snapshot differs from Run's:\n%s\n%s", workers, i, g, w)
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

// TestPerfectMachineAllocatesNoDataSide bounds the host memory of a
// perfect-data machine, the timing side a stream group adds per
// perfect pass: its hierarchy builds no L1D, DTLB, distinct-line
// directory or in-flight table.  The bound is the smallest of several
// measurements, so allocations by other goroutines cannot fail it.
func TestPerfectMachineAllocatesNoDataSide(t *testing.T) {
	spec := perfectSpec(Spec{
		Bench:  "health",
		Params: olden.Params{Scheme: core.SchemeNone, Size: olden.SizeFull},
	})
	alloc := heap.New(mem.NewImage())
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := newMachine(spec, alloc); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("perfect-data machine: %d bytes", least)
	if least > 190<<10 {
		t.Errorf("a perfect-data machine allocates %d bytes, want at most %d", least, 190<<10)
	}
}
