package main

import (
	"strconv"
	"strings"
	"testing"
)

// TestRunTraceSmoke drives a tiny traced run end-to-end and checks the
// output shape: a header, per-instruction lines with the pipeline
// columns, and the closing run summary.
func TestRunTraceSmoke(t *testing.T) {
	var out strings.Builder
	args := []string{"-bench", "health", "-scheme", "coop", "-size", "test", "-n", "10"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"# health / coop",
		"disp=", "issue=+", "done=+",
		"# run:", "IPC",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("trace output missing %q:\n%s", want, got)
		}
	}
	// -n bounds the trace: header + 10 instruction lines + summary.
	if lines := strings.Count(got, "\n"); lines != 12 {
		t.Errorf("want 12 output lines (2 comments + 10 traced), got %d:\n%s", lines, got)
	}
}

// TestRunTraceLongSchemeName checks that jpptrace takes jppsim's long
// scheme names and traces exactly what the short name traces.
func TestRunTraceLongSchemeName(t *testing.T) {
	var short, long strings.Builder
	args := []string{"-bench", "health", "-size", "test", "-n", "10", "-scheme"}
	if err := run(append(args, "coop"), &short); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "cooperative"), &long); err != nil {
		t.Fatal(err)
	}
	if long.String() != short.String() {
		t.Errorf("-scheme cooperative traced\n%s\nwant the -scheme coop trace\n%s", long.String(), short.String())
	}
}

// TestRunTraceSkip checks that -skip drops the first instructions: every
// traced sequence number must be beyond the skip point.
func TestRunTraceSkip(t *testing.T) {
	var out strings.Builder
	args := []string{"-bench", "treeadd", "-scheme", "none", "-size", "test",
		"-skip", "100", "-n", "5"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		seq, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			t.Fatalf("unparseable trace line %q: %v", line, err)
		}
		if seq <= 100 {
			t.Errorf("traced seq %d despite -skip 100", seq)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "nosuch"},
		{"-scheme", "warp"},
		{"-size", "enormous"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
