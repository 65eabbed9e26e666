package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/stats"
)

// TestRunAllExperimentsTestSize drives the command end to end on the
// unit-test input size and asserts a non-empty report is printed for
// every experiment ID.
func TestRunAllExperimentsTestSize(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-size", "test"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	prev := 0
	for _, id := range repro.ExperimentIDs() {
		marker := "[" + id + " regenerated in "
		i := strings.Index(text[prev:], marker)
		if i < 0 {
			t.Errorf("no output for experiment %q", id)
			continue
		}
		// The report text sits between the previous marker and this one.
		if strings.TrimSpace(text[prev:prev+i]) == "" {
			t.Errorf("empty report text for experiment %q", id)
		}
		prev += i + len(marker)
	}
}

func TestRunSingleExperimentWithWorkers(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-size", "test", "-exp", "fig5", "-bench", "health,treeadd", "-j", "4"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 5", "health", "treeadd"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("fig5 report missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-size", "enormous"}, &out); err == nil {
		t.Error("bad -size accepted")
	}
	if err := run([]string{"-size", "test", "-exp", "fig9"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
	// A misspelt -bench must fail every filtering experiment, not
	// render empty tables.
	for _, id := range []string{"table1", "fig4", "fig5", "fig6", "fig7", "costs", "shootout"} {
		err := run([]string{"-size", "test", "-exp", id, "-bench", "helth"}, &out)
		if err == nil || !strings.Contains(err.Error(), `"helth"`) {
			t.Errorf("-exp %s -bench helth: err = %v", id, err)
		}
	}
	// Figures 4 and 7 cover fixed benchmarks: a -bench list naming none
	// of them must fail and say which they cover.
	for id, covered := range map[string]string{"fig4": "treeadd", "fig7": "health"} {
		err := run([]string{"-size", "test", "-exp", id, "-bench", "bh"}, &out)
		if err == nil || !strings.Contains(err.Error(), covered) {
			t.Errorf("-exp %s -bench bh: err = %v, want one naming %s", id, err, covered)
		}
	}
}

// TestRunStatsTable feeds jppsim-format stats JSON (one single-object
// file, exactly the -stats-json layout, plus one array file) through
// the -stats mode and checks the attribution table comes out.
func TestRunStatsTable(t *testing.T) {
	dir := t.TempDir()
	var snaps []stats.Snapshot
	for _, scheme := range []repro.Scheme{repro.SchemeNone, repro.SchemeCooperative} {
		res, err := repro.Simulate(repro.Config{Bench: "health", Scheme: scheme, Size: repro.SizeTest})
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, res.Stats)
	}
	// Single object, as `jppsim -stats-json > file` produces.
	one, err := json.MarshalIndent(snaps[0], "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	onePath := filepath.Join(dir, "none.json")
	if err := os.WriteFile(onePath, append(one, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	// Array, as BENCH_jpp.json-style files hold.
	many, err := json.Marshal(snaps[1:])
	if err != nil {
		t.Fatal(err)
	}
	manyPath := filepath.Join(dir, "rest.json")
	if err := os.WriteFile(manyPath, many, 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run([]string{"-stats", onePath + "," + manyPath}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"Cycle attribution", "health", "none", "coop", "ldmiss%", "cov"} {
		if !strings.Contains(text, want) {
			t.Errorf("attribution table missing %q:\n%s", want, text)
		}
	}
	if got := strings.Count(text, "health"); got != len(snaps) {
		t.Errorf("want %d rows, got %d:\n%s", len(snaps), got, text)
	}
}

func TestRunStatsRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-stats", filepath.Join(dir, "missing.json")}, &out); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-stats", bad}, &out); err == nil {
		t.Error("malformed JSON accepted")
	}
	// A parseable snapshot violating the accounting invariants must be
	// rejected, not rendered.
	invalid := filepath.Join(dir, "invalid.json")
	s := stats.Snapshot{Version: stats.SchemaVersion, Bench: "x", Cycles: 10}
	s.CyclesByCategory.Busy = 3 // sums to 3, not 10
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(invalid, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-stats", invalid}, &out); err == nil {
		t.Error("invariant-violating snapshot accepted")
	}
}
