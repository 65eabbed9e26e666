package harness

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/olden"
	"repro/internal/stats"
)

var update = flag.Bool("update", false, "regenerate golden stats snapshots")

// TestStatsInvariantsAllKernelsAllEngines is the tentpole's acceptance
// gate: for every Olden kernel under every scheme (no prefetching, DBP,
// software, cooperative, hardware), the per-cycle attribution sums
// exactly to Cycles, prefetch outcomes sum exactly to prefetches
// issued, and the derived metrics sit in [0,1].
func TestStatsInvariantsAllKernelsAllEngines(t *testing.T) {
	t.Parallel()
	for _, b := range AllBenches() {
		for _, scheme := range core.Schemes() {
			b, scheme := b, scheme
			t.Run(b.Name+"/"+scheme.String(), func(t *testing.T) {
				t.Parallel()
				res, err := Run(Spec{
					Bench:  b.Name,
					Params: olden.Params{Scheme: scheme, Size: olden.SizeTest},
				})
				if err != nil {
					t.Fatal(err)
				}
				snap := res.Stats
				if err := snap.Validate(); err != nil {
					t.Fatal(err)
				}
				if snap.Cycles == 0 || snap.Insts == 0 {
					t.Fatalf("degenerate run: cycles=%d insts=%d", snap.Cycles, snap.Insts)
				}
				// Cross-layer identity: every prefetch the tracker saw came
				// from either a committed software prefetch instruction or
				// the engine (complete runs only; truncation would leave
				// emitted-but-unissued prefetches).
				if !snap.Truncated {
					got := snap.Prefetch.SWIssued + snap.Prefetch.EngineIssued
					if got != snap.Prefetch.Issued {
						t.Errorf("sw(%d)+engine(%d)=%d prefetches, tracker saw %d",
							snap.Prefetch.SWIssued, snap.Prefetch.EngineIssued,
							got, snap.Prefetch.Issued)
					}
				}
				if scheme == core.SchemeNone && snap.Prefetch.Issued != 0 {
					t.Errorf("no-prefetch run issued %d prefetches", snap.Prefetch.Issued)
				}
			})
		}
	}
}

// TestStatsInvariantsPerfectMemory covers the decomposition pass: with
// PerfectData the hierarchy bypasses the tracker entirely, so the
// prefetch section must be all zeros while the cycle identity still
// holds.
func TestStatsInvariantsPerfectMemory(t *testing.T) {
	spec := perfectSpec(Spec{
		Bench:  "health",
		Params: olden.Params{Scheme: core.SchemeCooperative, Size: olden.SizeTest},
	})
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Stats.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Prefetch.Issued != 0 || res.Stats.Prefetch.OutcomeTotal() != 0 {
		t.Errorf("perfect-memory run tracked prefetches: %+v", res.Stats.Prefetch)
	}
	if res.Stats.CyclesByCategory.LoadMiss != 0 {
		t.Errorf("perfect-memory run charged %d load-miss cycles",
			res.Stats.CyclesByCategory.LoadMiss)
	}
}

// TestStatsAttributionIsMeaningful pins the qualitative shape the paper
// depends on: the no-prefetch run of a pointer-chasing kernel spends a
// large share of its cycles stalled on load misses, and cooperative JPP
// reduces exactly that share.  SizeSmall is the smallest input where
// the structures outgrow the L1 and the jump-pointer queue warms up.
func TestStatsAttributionIsMeaningful(t *testing.T) {
	run := func(scheme core.Scheme) stats.Snapshot {
		res, err := Run(Spec{
			Bench:  "health",
			Params: olden.Params{Scheme: scheme, Size: olden.SizeSmall},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	base := run(core.SchemeNone)
	coop := run(core.SchemeCooperative)
	if base.CyclesByCategory.LoadMiss == 0 {
		t.Fatal("baseline health run shows no load-miss cycles")
	}
	if coop.CyclesByCategory.LoadMiss >= base.CyclesByCategory.LoadMiss {
		t.Errorf("cooperative JPP did not reduce load-miss cycles: %d -> %d",
			base.CyclesByCategory.LoadMiss, coop.CyclesByCategory.LoadMiss)
	}
	if coop.Prefetch.Useful() == 0 {
		t.Error("cooperative JPP recorded no useful prefetches")
	}
}

func marshalSnap(t *testing.T, s stats.Snapshot) []byte {
	t.Helper()
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestStatsDeterministic asserts byte-identical stats JSON across
// repeated runs and across batch-runner worker counts: the stats layer
// must not introduce any scheduling or map-iteration dependence.
func TestStatsDeterministic(t *testing.T) {
	var specs []Spec
	for _, scheme := range core.Schemes() {
		specs = append(specs, Spec{
			Bench:  "health",
			Params: olden.Params{Scheme: scheme, Size: olden.SizeTest},
		})
	}

	ref := make([][]byte, len(specs))
	for i, it := range RunBatch(specs, 1) {
		if it.Err != nil {
			t.Fatal(it.Err)
		}
		ref[i] = marshalSnap(t, it.Result.Stats)
	}

	// Repeated serial run.
	for i, it := range RunBatch(specs, 1) {
		if it.Err != nil {
			t.Fatal(it.Err)
		}
		if got := marshalSnap(t, it.Result.Stats); string(got) != string(ref[i]) {
			t.Errorf("repeat run of %s/%v differs:\n%s\nvs\n%s",
				specs[i].Bench, specs[i].Params.Scheme, got, ref[i])
		}
	}

	// Across worker counts.
	for _, workers := range []int{2, 4, 0} {
		for i, it := range RunBatch(specs, workers) {
			if it.Err != nil {
				t.Fatal(it.Err)
			}
			if got := marshalSnap(t, it.Result.Stats); string(got) != string(ref[i]) {
				t.Errorf("workers=%d run of %s/%v differs from serial",
					workers, specs[i].Bench, specs[i].Params.Scheme)
			}
		}
	}
}

// TestGoldenStats locks the small-scale stats snapshot of every Olden
// kernel under cooperative JPP: any timing-model change shows up as a
// reviewable golden diff.  Three sampled runs ride along: their unit is
// short enough to fast-forward many times, so they pin the sampled
// loop's timing exactly (TestSampledMatchesFull only bounds its error).
// Regenerate with:
//
//	go test ./internal/harness -run TestGoldenStats -update
func TestGoldenStats(t *testing.T) {
	t.Parallel()
	type golden struct {
		name, file string
		spec       Spec
	}
	var cases []golden
	for _, b := range AllBenches() {
		cases = append(cases, golden{b.Name, "stats_" + b.Name + "_coop_test.json", Spec{
			Bench:  b.Name,
			Params: olden.Params{Scheme: core.SchemeCooperative, Size: olden.SizeTest},
		}})
	}
	for _, name := range []string{"health", "treeadd", "lru"} {
		cases = append(cases, golden{name + "_small_sampled", "stats_" + name + "_coop_small_sampled.json", Spec{
			Bench:    name,
			Params:   olden.Params{Scheme: core.SchemeCooperative, Size: olden.SizeSmall},
			Sampling: &cpu.SamplingConfig{Period: 20_000, Detail: 2_000, Warmup: 1_000},
		}})
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Stats.Validate(); err != nil {
				t.Fatal(err)
			}
			got := marshalSnap(t, res.Stats)
			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if string(got) != string(want) {
				t.Errorf("stats snapshot for %s changed (rerun with -update if intended)\ngot:\n%s\nwant:\n%s",
					tc.name, got, want)
			}
			// The golden file itself must parse and validate — it is the
			// published example of the schema.
			snaps, err := stats.ParseSnapshots(want)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range snaps {
				if err := s.Validate(); err != nil {
					t.Errorf("golden file invalid: %v", err)
				}
			}
		})
	}
}

// TestRenderAttribution smoke-tests the Fig. 6-style table: every
// bench/scheme row and every category column must appear.
func TestRenderAttribution(t *testing.T) {
	var snaps []stats.Snapshot
	for _, scheme := range []core.Scheme{core.SchemeNone, core.SchemeCooperative} {
		res, err := Run(Spec{
			Bench:  "treeadd",
			Params: olden.Params{Scheme: scheme, Size: olden.SizeTest},
		})
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, res.Stats)
	}
	text := RenderAttribution(snaps)
	for _, want := range []string{"treeadd", "none", "coop", "busy%", "ldmiss%", "cov", "acc", "timely"} {
		if !strings.Contains(text, want) {
			t.Errorf("attribution table missing %q:\n%s", want, text)
		}
	}
	if got := strings.Count(text, "treeadd"); got != len(snaps) {
		t.Errorf("want one row per snapshot, got %d:\n%s", got, text)
	}
}
