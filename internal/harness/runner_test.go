package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/olden"
)

func testSpec(bench string, scheme core.Scheme) Spec {
	return Spec{
		Bench:  bench,
		Params: olden.Params{Scheme: scheme, Size: olden.SizeTest},
	}
}

func TestRunBatchMatchesRun(t *testing.T) {
	specs := []Spec{
		testSpec("health", core.SchemeNone),
		testSpec("health", core.SchemeCooperative),
		testSpec("treeadd", core.SchemeSoftware),
		testSpec("mst", core.SchemeDBP),
	}
	items := RunBatch(specs, 0)
	if len(items) != len(specs) {
		t.Fatalf("got %d items for %d specs", len(items), len(specs))
	}
	for i, spec := range specs {
		want, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if items[i].Err != nil {
			t.Fatalf("slot %d: %v", i, items[i].Err)
		}
		got := items[i].Result
		if got.Spec.Bench != spec.Bench {
			t.Errorf("slot %d: result for %q, want %q (ordering broken)",
				i, got.Spec.Bench, spec.Bench)
		}
		if got.CPU.Cycles != want.CPU.Cycles || got.Cache.L1DMisses != want.Cache.L1DMisses {
			t.Errorf("slot %d (%s/%v): batch %d cycles, serial %d",
				i, spec.Bench, spec.Params.Scheme, got.CPU.Cycles, want.CPU.Cycles)
		}
	}
}

func TestRunBatchCapturesErrorsPerSlot(t *testing.T) {
	specs := []Spec{
		testSpec("health", core.SchemeNone),
		testSpec("no-such-bench", core.SchemeNone),
		testSpec("treeadd", core.SchemeNone),
	}
	items := RunBatch(specs, 2)
	if items[0].Err != nil || items[2].Err != nil {
		t.Fatalf("good specs errored: %v / %v", items[0].Err, items[2].Err)
	}
	if items[1].Err == nil {
		t.Fatal("bad spec did not error")
	}
	if items[0].Result.CPU.Cycles == 0 || items[2].Result.CPU.Cycles == 0 {
		t.Fatal("a failed spec starved its batch neighbours")
	}
	if err := firstErr(items); err == nil {
		t.Fatal("firstErr missed the captured error")
	}
}

func TestRunBatchEmptyAndWorkerClamping(t *testing.T) {
	if items := RunBatch(nil, 4); len(items) != 0 {
		t.Fatalf("empty batch returned %d items", len(items))
	}
	// More workers than jobs, and negative workers, must both work.
	for _, workers := range []int{-1, 1, 64} {
		items := RunBatch([]Spec{testSpec("health", core.SchemeNone)}, workers)
		if items[0].Err != nil || items[0].Result.CPU.Cycles == 0 {
			t.Fatalf("workers=%d: %+v", workers, items[0].Err)
		}
	}
}

// TestDecomposeBatchMatchesDecompose checks batch decompositions, and
// Decompose, against an independent reference: direct Runs of each
// spec and of its perfect-data variant.  The health specs under none,
// dbp and hw share one perfect pass in the batch, and the quicklist
// pair must not (its skip distance is the interval), so the reference
// also covers the sharing key.
func TestDecomposeBatchMatchesDecompose(t *testing.T) {
	ql16 := testSpec("quicklist", core.SchemeHardware)
	ql16.Params.Interval = 16
	specs := []Spec{
		testSpec("health", core.SchemeNone),
		testSpec("health", core.SchemeDBP),
		testSpec("health", core.SchemeHardware),
		testSpec("quicklist", core.SchemeNone),
		ql16,
		testSpec("treeadd", core.SchemeCooperative),
	}
	items := DecomposeBatch(specs, 0)
	if err := firstDecompErr(items); err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		full, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		perfect, err := Run(perfectSpec(spec))
		if err != nil {
			t.Fatal(err)
		}
		single, err := Decompose(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []struct {
			name string
			d    Decomposition
		}{{"batch", items[i].Decomp}, {"Decompose", single}} {
			if got.d.Total != full.CPU.Cycles || got.d.Compute != perfect.CPU.Cycles {
				t.Errorf("slot %d %s: total=%d compute=%d, direct runs total=%d compute=%d",
					i, got.name, got.d.Total, got.d.Compute, full.CPU.Cycles, perfect.CPU.Cycles)
			}
		}
	}
}

// TestDecomposeRecoversPanic: Decompose is fault-isolated like the
// batch runner, so a panicking kernel comes back as an error instead
// of killing the process.
func TestDecomposeRecoversPanic(t *testing.T) {
	_, err := Decompose(panicSpec())
	if err == nil || !strings.Contains(err.Error(), "injected kernel panic") {
		t.Fatalf("Decompose = %v, want the recovered panic", err)
	}
}

// TestBatchItemsHoldStatistics pins the batch memory contract: batch
// and decomposition slots drop the simulated machine (Hier, Heap,
// PrefEngine) but keep every statistic, so their snapshot JSON is
// byte-identical to Run's for the same spec.
func TestBatchItemsHoldStatistics(t *testing.T) {
	specs := []Spec{
		testSpec("health", core.SchemeNone),
		testSpec("health", core.SchemeCooperative),
		testSpec("mst", core.SchemeHardware),
	}
	runs := RunBatch(specs, 2)
	decomps := DecomposeBatch(specs, 2)
	for i, spec := range specs {
		want, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want.Stats)
		if err != nil {
			t.Fatal(err)
		}
		if runs[i].Err != nil || decomps[i].Err != nil {
			t.Fatalf("slot %d: %v / %v", i, runs[i].Err, decomps[i].Err)
		}
		for name, got := range map[string]Result{"RunBatch": runs[i].Result, "DecomposeBatch": decomps[i].Decomp.Full} {
			if got.Hier != nil || got.Heap != nil || got.PrefEngine != nil {
				t.Errorf("slot %d %s: machine retained (Hier %v, Heap %v, PrefEngine %v)",
					i, name, got.Hier != nil, got.Heap != nil, got.PrefEngine != nil)
			}
			gotJSON, err := json.Marshal(got.Stats)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("slot %d %s: snapshot differs from Run's:\n%s\n%s", i, name, gotJSON, wantJSON)
			}
		}
	}
}

// TestPerfectPassIgnoresHardwareScheme pins the rules perfect-pass
// sharing relies on (perfectPassKey): with perfect data memory, every
// registered workload simulates identically under none, dbp and hw at
// a given jump-pointer interval, and interval 0 is the default
// interval.  Other intervals may differ (quicklist's skip distance is
// the interval), so they are compared only among themselves.
func TestPerfectPassIgnoresHardwareScheme(t *testing.T) {
	schemes := []core.Scheme{core.SchemeNone, core.SchemeDBP, core.SchemeHardware}
	intervals := []int{0, core.DefaultInterval, 16}
	var specs []Spec
	for _, b := range olden.All() {
		for _, interval := range intervals {
			for _, scheme := range schemes {
				s := testSpec(b.Name, scheme)
				s.Params.Interval = interval
				specs = append(specs, perfectSpec(s))
			}
		}
	}
	items := RunBatch(specs, 0)
	perBench := len(intervals) * len(schemes)
	for i, it := range items {
		s := specs[i]
		if it.Err != nil {
			t.Fatalf("%s/%v/i%d: %v", s.Bench, s.Params.Scheme, s.Params.Interval, it.Err)
		}
		if it.Result.CPU.Cycles == 0 {
			t.Errorf("%s: empty run", s.Bench)
		}
		// The reference is none at interval 0 for the default interval,
		// and none at the same interval otherwise.
		ref := i - i%perBench
		if s.Params.Interval == 16 {
			ref = i - i%len(schemes)
		}
		base := items[ref].Result
		if !reflect.DeepEqual(it.Result.CPU, base.CPU) || it.Result.Cache != base.Cache {
			t.Errorf("%s/%v/i%d: perfect-data CPU or cache statistics differ from %v/i%d",
				s.Bench, s.Params.Scheme, s.Params.Interval,
				specs[ref].Params.Scheme, specs[ref].Params.Interval)
		}
	}
}

// TestDecompPlanSharesFig5PerfectPasses: Figure 5's spec set for one
// benchmark flattens to its 5 realistic runs and 3 perfect passes —
// none, dbp and hw share one, sw and coop each need their own.
func TestDecompPlanSharesFig5PerfectPasses(t *testing.T) {
	b, _ := olden.ByName("health")
	specs := schemeSweep([]*olden.Benchmark{b}, olden.SizeFull)
	flat, fullAt, perfectAt := decompPlan(specs)
	var realistic, perfect int
	for _, s := range flat {
		if s.Mem != nil && s.Mem.PerfectData {
			perfect++
		} else {
			realistic++
		}
	}
	if realistic != 5 || perfect != 3 {
		t.Fatalf("flattened to %d realistic and %d perfect runs, want 5 and 3", realistic, perfect)
	}
	for i, s := range specs {
		if flat[fullAt[i]].Params.Scheme != s.Params.Scheme || !flat[perfectAt[i]].Mem.PerfectData {
			t.Errorf("slot %d (%v): pool indices %d/%d misaligned", i, s.Params.Scheme, fullAt[i], perfectAt[i])
		}
	}
}

func TestDecomposeBatchCapturesErrors(t *testing.T) {
	items := DecomposeBatch([]Spec{
		testSpec("nope", core.SchemeNone),
		testSpec("health", core.SchemeNone),
	}, 0)
	if items[0].Err == nil {
		t.Fatal("bad spec did not error")
	}
	if items[1].Err != nil {
		t.Fatalf("good spec errored: %v", items[1].Err)
	}
	if firstDecompErr(items) == nil {
		t.Fatal("firstDecompErr missed the captured error")
	}
}

// panicSpec injects a kernel that emits some real work and then
// panics mid-emission — the failure mode of a buggy workload or a
// wedged configuration tripping an internal invariant.
func panicSpec() Spec {
	return Spec{
		Bench:  "panicky",
		Params: olden.Params{Scheme: core.SchemeNone, Size: olden.SizeTest},
		Kernel: func(a *ir.Asm) {
			for i := 0; i < 100; i++ {
				a.Op(ir.FirstUserSite, ir.IntAlu, 1, ir.Imm(1), ir.Val{})
			}
			panic("injected kernel panic")
		},
	}
}

// TestRunBatchIsolatesPanics pins the fault-isolation contract: a
// panicking simulation becomes that slot's error, and the neighbouring
// slots still complete, under both the serial and parallel batch paths.
func TestRunBatchIsolatesPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		specs := []Spec{
			testSpec("health", core.SchemeNone),
			panicSpec(),
			testSpec("mst", core.SchemeNone),
		}
		items := RunBatch(specs, workers)
		if items[1].Err == nil || !strings.Contains(items[1].Err.Error(), "injected kernel panic") {
			t.Fatalf("workers=%d: panic slot error = %v, want the recovered panic", workers, items[1].Err)
		}
		for _, i := range []int{0, 2} {
			if items[i].Err != nil {
				t.Errorf("workers=%d: slot %d errored: %v", workers, i, items[i].Err)
			}
			if items[i].Result.CPU.Cycles == 0 {
				t.Errorf("workers=%d: slot %d did not run", workers, i)
			}
		}
	}
}

// RunGuarded without a timeout still converts panics to errors.
func TestRunGuardedRecoversPanic(t *testing.T) {
	_, err := RunGuarded(panicSpec())
	if err == nil || !strings.Contains(err.Error(), "injected kernel panic") {
		t.Fatalf("RunGuarded = %v, want recovered panic", err)
	}
}

// TestRunGuardedDeadline wedges a run (a workload far too large for its
// 1ms deadline) and checks it is abandoned and reported as ErrDeadline.
// The spec also sets CPU.MaxCycles, the documented hard backstop, so
// the abandoned goroutine terminates on its own instead of simulating
// the full workload in the background.
func TestRunGuardedDeadline(t *testing.T) {
	cc := cpu.Defaults()
	cc.MaxCycles = 2_000_000
	spec := Spec{
		Bench:  "wedge",
		Params: olden.Params{Scheme: core.SchemeNone, Size: olden.SizeTest},
		Kernel: func(a *ir.Asm) {
			for i := 0; i < 20_000_000; i++ {
				a.Op(ir.FirstUserSite, ir.IntAlu, uint32(i), ir.Imm(1), ir.Val{})
			}
		},
		Timeout: time.Millisecond,
		CPU:     &cc,
	}
	_, err := RunGuarded(spec)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("RunGuarded = %v, want ErrDeadline", err)
	}
}

// TestAwaitRunPrefersOutcomeOverDeadline pins the double-error path: a
// run that finishes (here: with a recovered panic) in the same
// scheduling window its deadline expires must be reported as itself,
// not as ErrDeadline.  Before awaitRun re-checked the outcome channel,
// the bare select chose between the two ready cases at random, so this
// failed roughly half the iterations.
func TestAwaitRunPrefersOutcomeOverDeadline(t *testing.T) {
	spec := Spec{Bench: "double", Timeout: time.Millisecond}
	panicErr := errors.New("recovered kernel panic")
	for i := 0; i < 200; i++ {
		ch := make(chan outcome, 1)
		ch <- outcome{err: panicErr}
		fired := make(chan time.Time)
		close(fired) // the deadline arm is permanently ready
		_, err := awaitRun(spec, ch, fired)
		if !errors.Is(err, panicErr) {
			t.Fatalf("iteration %d: awaitRun = %v, want the run's own error %v", i, err, panicErr)
		}
	}
}

// TestRunBatchPanicAfterDeadline combines the two fault-isolation
// mechanisms end to end: a kernel that wedges past its deadline and
// then panics.  The slot must report ErrDeadline (the deadline fired
// first), the neighbouring slots must complete, and the late panic in
// the abandoned goroutine must be recovered rather than killing the
// process.
func TestRunBatchPanicAfterDeadline(t *testing.T) {
	gate := make(chan struct{})
	unwound := make(chan struct{})
	late := Spec{
		Bench:  "latepanic",
		Params: olden.Params{Scheme: core.SchemeNone, Size: olden.SizeTest},
		Kernel: func(a *ir.Asm) {
			a.Op(ir.FirstUserSite, ir.IntAlu, 1, ir.Imm(1), ir.Val{})
			defer close(unwound)
			<-gate
			panic("panic after deadline expiry")
		},
		Timeout: time.Millisecond,
	}
	items := RunBatch([]Spec{
		testSpec("health", core.SchemeNone),
		late,
		testSpec("mst", core.SchemeNone),
	}, 3)
	if !errors.Is(items[1].Err, ErrDeadline) {
		t.Fatalf("late-panic slot error = %v, want ErrDeadline", items[1].Err)
	}
	for _, i := range []int{0, 2} {
		if items[i].Err != nil {
			t.Errorf("slot %d errored: %v", i, items[i].Err)
		}
	}
	// Release the abandoned run so it panics now, after its slot was
	// already settled as a deadline overrun.  The recovery chain (kernel
	// goroutine -> generator -> runRecover) must swallow it; if it does
	// not, the unrecovered panic crashes the test process.
	close(gate)
	<-unwound
	time.Sleep(50 * time.Millisecond)
}

// Spec.Kernel runs instead of the registry benchmark, and the run
// produces real architectural state.
func TestRunCustomKernel(t *testing.T) {
	spec := Spec{
		Bench:  "custom",
		Params: olden.Params{Scheme: core.SchemeNone, Size: olden.SizeTest},
		Kernel: func(a *ir.Asm) {
			p := a.Malloc(16)
			a.Store(ir.FirstUserSite, p, 0, ir.Imm(0xabcd))
		},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Insts == 0 || res.CPU.Cycles == 0 {
		t.Fatalf("custom kernel did not run: %+v", res.CPU)
	}
	if res.Heap.Allocs() != 1 {
		t.Fatalf("custom kernel allocations = %d, want 1", res.Heap.Allocs())
	}
}

// TestParallelSerialIdenticalReports is the determinism contract of the
// batch runner: every experiment driver must produce byte-identical
// report text whether its simulations run serially or on every host
// core.  Each Run builds a fresh mem.Image and cache.Hierarchy, so any
// divergence here is a shared-state bug.
func TestParallelSerialIdenticalReports(t *testing.T) {
	parallel := runtime.GOMAXPROCS(0)
	if parallel < 2 {
		parallel = 4
	}
	for _, e := range Experiments() {
		serialCfg := ExpConfig{Size: olden.SizeTest, Workers: 1}
		parallelCfg := ExpConfig{Size: olden.SizeTest, Workers: parallel}
		serial, err := e.Fn(serialCfg)
		if err != nil {
			t.Fatalf("%s serial: %v", e.ID, err)
		}
		par, err := e.Fn(parallelCfg)
		if err != nil {
			t.Fatalf("%s parallel: %v", e.ID, err)
		}
		if serial.Text == "" {
			t.Errorf("%s: empty report", e.ID)
		}
		if serial.Text != par.Text {
			t.Errorf("%s: parallel (j=%d) report differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				e.ID, parallel, serial.Text, par.Text)
		}
	}
}
