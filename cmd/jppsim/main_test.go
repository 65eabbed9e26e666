package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/olden"
	"repro/internal/stats"
)

func TestParseScheme(t *testing.T) {
	cases := []struct {
		in   string
		want repro.Scheme
	}{
		{"none", repro.SchemeNone},
		{"dbp", repro.SchemeDBP},
		{"sw", repro.SchemeSoftware},
		{"software", repro.SchemeSoftware},
		{"coop", repro.SchemeCooperative},
		{"cooperative", repro.SchemeCooperative},
		{"hw", repro.SchemeHardware},
		{"hardware", repro.SchemeHardware},
	}
	for _, c := range cases {
		got, err := core.ParseScheme(c.in)
		if err != nil {
			t.Errorf("ParseScheme(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseScheme(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "NONE", "hardwear", "all"} {
		if _, err := core.ParseScheme(bad); err == nil {
			t.Errorf("ParseScheme(%q) accepted", bad)
		}
	}
}

func TestParseIdiom(t *testing.T) {
	cases := []struct {
		in   string
		want repro.Idiom
	}{
		{"", repro.IdiomDefault},
		{"queue", repro.IdiomQueue},
		{"full", repro.IdiomFull},
		{"chain", repro.IdiomChain},
		{"root", repro.IdiomRoot},
	}
	for _, c := range cases {
		got, err := core.ParseIdiom(c.in)
		if err != nil {
			t.Errorf("ParseIdiom(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseIdiom(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"ribs", "Queue", "default"} {
		if _, err := core.ParseIdiom(bad); err == nil {
			t.Errorf("ParseIdiom(%q) accepted", bad)
		}
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want repro.Size
	}{
		{"test", repro.SizeTest},
		{"small", repro.SizeSmall},
		{"full", repro.SizeFull},
		{"large", repro.SizeLarge},
	}
	for _, c := range cases {
		got, err := olden.ParseSize(c.in)
		if err != nil {
			t.Errorf("ParseSize(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseSize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "tiny", "FULL"} {
		if _, err := olden.ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) accepted", bad)
		}
	}
}

func TestRunStatsJSON(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-bench", "health", "-scheme", "coop", "-size", "test", "-stats-json"}, &out); err != nil {
		t.Fatal(err)
	}
	snaps, err := stats.ParseSnapshots([]byte(out.String()))
	if err != nil {
		t.Fatalf("output is not a stats snapshot: %v\n%s", err, out.String())
	}
	if len(snaps) != 1 {
		t.Fatalf("want 1 snapshot, got %d", len(snaps))
	}
	s := snaps[0]
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Bench != "health" || s.Scheme != "coop" || s.Size != "test" {
		t.Errorf("snapshot misidentifies the run: %s/%s/%s", s.Bench, s.Scheme, s.Size)
	}
	if s.Cycles == 0 {
		t.Error("snapshot has zero cycles")
	}
}

func TestRunStatsJSONWithSplit(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-bench", "treeadd", "-scheme", "none", "-size", "test", "-split", "-stats-json"}, &out); err != nil {
		t.Fatal(err)
	}
	snaps, err := stats.ParseSnapshots([]byte(out.String()))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("split -stats-json output unparseable: %v", err)
	}
	if err := snaps[0].Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunTextModeIncludesBreakdown(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-bench", "health", "-scheme", "coop", "-size", "test"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cycle breakdown", "busy=", "ldmiss=", "prefetches"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("text output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{
		{"-scheme", "warp"},
		{"-idiom", "ribs"},
		{"-size", "enormous"},
		{"-bench", "nosuch", "-size", "test"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunValidateMode(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-validate", "-size", "test", "-vbench", "health,treeadd", "-vprograms", "2"}, &out)
	if err != nil {
		t.Fatalf("validate mode: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"kernel  health",
		"kernel  treeadd",
		"program seed=1",
		"validate: 4 subjects, 0 failure(s)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("validate output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunValidateModeRejectsBadBench(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-validate", "-size", "test", "-vbench", "nosuch", "-vprograms", "-1"}, &out)
	if err == nil {
		t.Fatalf("unknown bench accepted:\n%s", out.String())
	}
}

// TestRunBothProfiles: -cpuprofile and -memprofile compose — one run
// writes both files, and each parses as a pprof profile (gzip magic).
// A failing heap-profile write must surface as a run error, not be
// swallowed by the deferred writer.
func TestRunBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	heap := filepath.Join(dir, "heap.prof")
	var out strings.Builder
	if err := run([]string{"-bench", "mst", "-scheme", "dbp", "-size", "test",
		"-cpuprofile", cpu, "-memprofile", heap}, &out); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, heap} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s is not a gzipped pprof profile", p)
		}
	}
	err := run([]string{"-bench", "mst", "-scheme", "dbp", "-size", "test",
		"-memprofile", filepath.Join(dir, "no/such/dir/heap.prof")}, &out)
	if err == nil {
		t.Error("unwritable -memprofile path did not fail the run")
	}
}

// TestRunSampledMode: -sample produces a valid sampled snapshot whose
// instruction count matches the full-fidelity run of the same spec
// (functional execution is complete either way).
func TestRunSampledMode(t *testing.T) {
	var full, sampled strings.Builder
	if err := run([]string{"-bench", "mst", "-scheme", "dbp", "-size", "small", "-stats-json"}, &full); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-bench", "mst", "-scheme", "dbp", "-size", "small", "-sample", "-stats-json"}, &sampled); err != nil {
		t.Fatal(err)
	}
	fs, err := stats.ParseSnapshots([]byte(full.String()))
	if err != nil || len(fs) != 1 {
		t.Fatalf("full snapshot unparseable: %v", err)
	}
	ss, err := stats.ParseSnapshots([]byte(sampled.String()))
	if err != nil || len(ss) != 1 {
		t.Fatalf("sampled snapshot unparseable: %v", err)
	}
	if err := ss[0].Validate(); err != nil {
		t.Fatal(err)
	}
	if !ss[0].Sampled || ss[0].Sampling == nil {
		t.Fatal("-sample run not marked sampled")
	}
	if ss[0].Insts != fs[0].Insts {
		t.Errorf("sampled instruction count %d != full %d", ss[0].Insts, fs[0].Insts)
	}
}
