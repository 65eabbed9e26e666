package harness

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/olden"
	"repro/internal/prefetch"
)

// TestEngineRegistrySelection covers the registry wiring in Run: scheme
// defaults resolve through prefetch.DefaultFor, explicit Spec.Engine
// overrides them, unknown names error, and perfect-memory runs never
// attach an engine.
func TestEngineRegistrySelection(t *testing.T) {
	for _, c := range []struct {
		scheme core.Scheme
		want   string
	}{
		{core.SchemeNone, ""},
		{core.SchemeSoftware, ""},
		{core.SchemeDBP, "dbp"},
		{core.SchemeCooperative, "dbp"},
		{core.SchemeHardware, "hw"},
	} {
		res, err := Run(Spec{
			Bench:  "health",
			Params: olden.Params{Scheme: c.scheme, Size: olden.SizeTest},
		})
		if err != nil {
			t.Fatalf("%v: %v", c.scheme, err)
		}
		if res.EngineName != c.want || res.Stats.Engine != c.want {
			t.Errorf("%v: engine = %q / snapshot %q, want %q",
				c.scheme, res.EngineName, res.Stats.Engine, c.want)
		}
		if (res.PrefEngine != nil) != (c.want != "") {
			t.Errorf("%v: PrefEngine presence mismatches engine name %q", c.scheme, c.want)
		}
	}

	res, err := Run(Spec{
		Bench:  "health",
		Engine: "markov",
		Params: olden.Params{Scheme: core.SchemeNone, Size: olden.SizeTest},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EngineName != "markov" || res.Stats.Engine != "markov" {
		t.Fatalf("override: engine = %q / snapshot %q", res.EngineName, res.Stats.Engine)
	}
	if err := res.Stats.Validate(); err != nil {
		t.Errorf("override snapshot invalid: %v", err)
	}

	if _, err := Run(Spec{
		Bench:  "health",
		Engine: "nonesuch",
		Params: olden.Params{Size: olden.SizeTest},
	}); err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("unknown engine: err = %v", err)
	}

	perfect, err := Run(perfectSpec(Spec{
		Bench:  "health",
		Engine: "stride",
		Params: olden.Params{Scheme: core.SchemeNone, Size: olden.SizeTest},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if perfect.EngineName != "" || perfect.PrefEngine != nil {
		t.Errorf("perfect-memory run attached engine %q", perfect.EngineName)
	}
	if !perfect.Stats.PerfectMem {
		t.Error("perfect-memory run not marked in snapshot")
	}
}

// TestEngineIssuedMatchesCacheRequests reconciles the snapshot's
// EngineIssued against the engine's own choke-point counters and the
// tracker identity, for every registered engine.
func TestEngineIssuedMatchesCacheRequests(t *testing.T) {
	for _, name := range prefetch.Names() {
		res, err := Run(Spec{
			Bench:  "health",
			Engine: name,
			Params: olden.Params{Scheme: core.SchemeNone, Size: olden.SizeTest},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rq, ok := res.PrefEngine.(prefetch.Requester)
		if !ok {
			t.Fatalf("%s: engine does not implement prefetch.Requester", name)
		}
		issued, dropped := rq.CacheRequests()
		if got := res.Stats.Prefetch.EngineIssued; got != issued+dropped {
			t.Errorf("%s: EngineIssued = %d, want issued %d + dropped %d",
				name, got, issued, dropped)
		}
		if err := res.Stats.Validate(); err != nil {
			t.Errorf("%s: snapshot invalid: %v", name, err)
		}
	}
}

// TestRunDerivesPrefetchBuffer pins Run's prefetch-buffer rule: the
// buffer exists exactly when a prefetch engine attaches, whatever
// Spec.Mem.EnablePB says.  Inverting the field must leave the snapshot
// byte-identical for a scheme without an engine and for one with.  It
// runs health at the small size: at the test size cooperative JPP
// fills no buffer line, so the check could not fail.
func TestRunDerivesPrefetchBuffer(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeNone, core.SchemeCooperative} {
		snap := func(m *cache.Params) ([]byte, uint64) {
			res, err := Run(Spec{
				Bench:  "health",
				Params: olden.Params{Scheme: scheme, Size: olden.SizeSmall},
				Mem:    m,
			})
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(res.Stats)
			if err != nil {
				t.Fatal(err)
			}
			return b, res.Cache.PBFills
		}
		// Run derives the buffer for coop only, so this inverts it.
		inverted := cache.Defaults()
		inverted.EnablePB = scheme == core.SchemeNone
		want, fills := snap(nil)
		if scheme == core.SchemeCooperative && fills == 0 {
			t.Fatal("coop: no prefetch-buffer fill, so the buffer's absence would not show")
		}
		if got, _ := snap(&inverted); string(got) != string(want) {
			t.Errorf("%s: Spec.Mem.EnablePB = %v changed the snapshot", scheme, inverted.EnablePB)
		}
	}
}

// TestIntervalAffectsEveryEngine is the regression test for the
// interval plumbing bug: Spec.Params.Interval used to override only the
// hardware JQT interval, so the DBP engine (and any registry engine)
// ignored a swept interval.  Now the interval routes through the
// factory config uniformly, so sweeping it must change every engine's
// observable behavior.
func TestIntervalAffectsEveryEngine(t *testing.T) {
	for _, name := range prefetch.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			snap := func(interval int) []byte {
				res, err := Run(Spec{
					Bench:  "health",
					Engine: name,
					Params: olden.Params{
						Scheme:   core.SchemeNone,
						Size:     olden.SizeSmall,
						Interval: interval,
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(res.Stats)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			if string(snap(2)) == string(snap(32)) {
				t.Errorf("engine %s: interval 2 and 32 produce identical snapshots", name)
			}
		})
	}
}

// countedKernel is a trivial workload that records how many times it
// was invoked; each Run invokes the kernel exactly once.
func countedKernel(runs *atomic.Int64) func(*ir.Asm) {
	return func(a *ir.Asm) {
		runs.Add(1)
		v := a.Malloc(16)
		a.Store(ir.FirstUserSite, v, 0, ir.Imm(7))
		a.Load(ir.FirstUserSite+1, v, 0, 0)
	}
}

// TestDecomposePerfectRunsOnce is the regression test for the duplicate
// perfect-run bug: a spec that already requests perfect data memory
// used to be simulated twice (identical runs), reporting zero memory
// stall as if measured.  It must run once, with Total == Compute.
func TestDecomposePerfectRunsOnce(t *testing.T) {
	var runs atomic.Int64
	spec := perfectSpec(Spec{
		Bench:  "counted",
		Kernel: countedKernel(&runs),
		Params: olden.Params{Scheme: core.SchemeNone, Size: olden.SizeTest},
	})
	d, err := Decompose(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("perfect spec simulated %d times, want 1", got)
	}
	if d.Total != d.Compute || d.Memory() != 0 {
		t.Errorf("decomposition = %+v, want Total == Compute", d)
	}
	if d.Full.CPU.Cycles != d.Total {
		t.Errorf("Full result cycles %d != Total %d", d.Full.CPU.Cycles, d.Total)
	}
}

// TestDecomposeBatchPerfectRunsOnce covers the same bug in the batch
// flattening path, including slot alignment in a mixed batch.
func TestDecomposeBatchPerfectRunsOnce(t *testing.T) {
	var perfectRuns atomic.Int64
	specs := []Spec{
		{
			Bench:  "health",
			Params: olden.Params{Scheme: core.SchemeNone, Size: olden.SizeTest},
		},
		perfectSpec(Spec{
			Bench:  "counted",
			Kernel: countedKernel(&perfectRuns),
			Params: olden.Params{Scheme: core.SchemeNone, Size: olden.SizeTest},
		}),
		{
			Bench:  "treeadd",
			Params: olden.Params{Scheme: core.SchemeNone, Size: olden.SizeTest},
		},
	}
	items := DecomposeBatch(specs, 2)
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("slot %d: %v", i, it.Err)
		}
	}
	if got := perfectRuns.Load(); got != 1 {
		t.Errorf("perfect spec simulated %d times, want 1", got)
	}
	if d := items[1].Decomp; d.Total != d.Compute {
		t.Errorf("perfect slot: %+v, want Total == Compute", d)
	}
	// Realistic slots still decompose into compute < total-or-equal and
	// keep their identities (slot alignment survived the mixed batch).
	for _, i := range []int{0, 2} {
		d := items[i].Decomp
		if d.Compute == 0 || d.Compute > d.Total {
			t.Errorf("slot %d: bad split %+v", i, d)
		}
		if d.Full.Spec.Bench != specs[i].Bench {
			t.Errorf("slot %d: result for %q, want %q", i, d.Full.Spec.Bench, specs[i].Bench)
		}
	}
}

// TestShootoutReport smoke-tests the cross-prefetcher experiment: every
// registered engine appears in the rendered table.
func TestShootoutReport(t *testing.T) {
	rep, err := Shootout(ExpConfig{Size: olden.SizeTest, Benches: []string{"health"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "shootout" {
		t.Fatalf("report id = %q", rep.ID)
	}
	for _, eng := range prefetch.Names() {
		if !strings.Contains(rep.Text, eng) {
			t.Errorf("shootout table missing engine %q:\n%s", eng, rep.Text)
		}
	}
	for _, col := range []string{"speedup", "cov", "acc", "timely"} {
		if !strings.Contains(rep.Text, col) {
			t.Errorf("shootout table missing column %q", col)
		}
	}
}
