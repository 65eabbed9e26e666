package validate

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/olden"
)

// -matrix-size selects the differential workload matrix input size, so CI
// can run the matrix at "small" while the default `go test` stays fast.
var matrixSize = flag.String("matrix-size", "test", "differential matrix input size (test|small)")

func matrixInputSize(t *testing.T) olden.Size {
	t.Helper()
	switch *matrixSize {
	case "test":
		return olden.SizeTest
	case "small":
		return olden.SizeSmall
	}
	t.Fatalf("unknown -matrix-size %q", *matrixSize)
	return olden.SizeTest
}

// TestDifferentialWorkloadMatrix is the acceptance gate: every
// registered workload, Olden and kernels family alike, under every
// prefetch scheme, with cycle skipping both on and off, must commit a
// stream byte-identical to the in-order oracle's.
func TestDifferentialWorkloadMatrix(t *testing.T) {
	size := matrixInputSize(t)
	for _, bench := range olden.Names() {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			for _, f := range CheckKernel(bench, size, Config{}) {
				t.Errorf("%s", f)
			}
		})
	}
}

// TestDifferentialProgramMatrix runs 100 seeded random programs through
// interpreter, oracle and the full scheme x skip matrix.
func TestDifferentialProgramMatrix(t *testing.T) {
	const programs = 100
	const shards = 10
	for s := 0; s < shards; s++ {
		s := s
		t.Run(fmt.Sprintf("shard%d", s), func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1 + s); seed <= programs; seed += shards {
				for _, f := range CheckProgram(seed, Config{}) {
					t.Errorf("%s", f)
				}
			}
		})
	}
}

// mutationConfig injects one deliberate commit-stage bug a little way
// into the run (past the lowering prologue, inside the program body).
func mutationConfig(f cpu.Fault) Config {
	return Config{Fault: f, FaultAfter: 100}
}

// TestMutationCaught proves the driver has teeth: a core that silently
// drops one commit, or corrupts one committed load value, must produce
// at least one divergence on both workload kinds.
func TestMutationCaught(t *testing.T) {
	faults := []struct {
		name  string
		fault cpu.Fault
	}{
		{"drop-commit", cpu.FaultDropCommit},
		{"corrupt-load", cpu.FaultCorruptLoadValue},
	}
	for _, tf := range faults {
		tf := tf
		t.Run(tf.name+"/program", func(t *testing.T) {
			t.Parallel()
			if fails := CheckProgram(1, mutationConfig(tf.fault)); len(fails) == 0 {
				t.Errorf("injected %s escaped the program matrix", tf.name)
			}
		})
		t.Run(tf.name+"/kernel", func(t *testing.T) {
			t.Parallel()
			if fails := CheckKernel("health", olden.SizeTest, mutationConfig(tf.fault)); len(fails) == 0 {
				t.Errorf("injected %s escaped the kernel matrix", tf.name)
			}
		})
	}
	t.Run("control", func(t *testing.T) {
		t.Parallel()
		if fails := CheckProgram(1, mutationConfig(cpu.FaultNone)); len(fails) != 0 {
			t.Errorf("control run failed: %v", fails)
		}
	})
}

func TestCheckKernelUnknownBench(t *testing.T) {
	fails := CheckKernel("nonesuch", olden.SizeTest, Config{})
	if len(fails) != 1 || fails[0].Check != "run" {
		t.Fatalf("unknown bench: got %v, want one run failure", fails)
	}
}

// TestCycleSanityBound exercises the wedge-catcher arithmetic directly.
func TestCycleSanityBound(t *testing.T) {
	cfg := Config{SlackRatio: 2, SlackAbs: 100}.norm()
	if fails := cycleSanity("x", 2*1000+100, 1000, cfg); len(fails) != 0 {
		t.Errorf("at the bound: %v", fails)
	}
	if fails := cycleSanity("x", 2*1000+101, 1000, cfg); len(fails) != 1 {
		t.Errorf("past the bound: %v", fails)
	}
	if fails := cycleSanity("x", 5000, 0, cfg); len(fails) != 0 {
		t.Errorf("missing baseline must not fail: %v", fails)
	}
}

func TestRunMatrixReport(t *testing.T) {
	var b strings.Builder
	fails := RunMatrix(&b, MatrixOptions{
		Benches:  []string{"health", "mst"},
		Programs: 3,
	})
	out := b.String()
	if len(fails) != 0 {
		t.Fatalf("matrix failures:\n%s", out)
	}
	for _, want := range []string{
		"kernel  health",
		"kernel  mst",
		"program seed=1",
		"program seed=3",
		"validate: 5 subjects, 0 failure(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// Software schemes rewrite the emitted stream (prefetch idioms), so the
// matrix is only meaningful if it really covers them: the default
// config must include every scheme.
func TestDefaultConfigCoversAllSchemes(t *testing.T) {
	cfg := Config{}.norm()
	if len(cfg.Schemes) != len(core.Schemes()) {
		t.Fatalf("default schemes = %v, want all of %v", cfg.Schemes, core.Schemes())
	}
	if cfg.Schemes[0] != core.SchemeNone {
		t.Fatalf("baseline scheme = %v, want none first", cfg.Schemes[0])
	}
}
