package kernels_test

import (
	"encoding/json"
	"flag"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/kernels"
	"repro/internal/olden"
	"repro/internal/prefetch"
	"repro/internal/stats"
)

// The kernel conformance suite: every kernel registered in this package
// is pushed through the snapshot matrix the Olden suite already
// satisfies — all 5 schemes x every prefetch engine x cycle skipping
// and block replay on/off — asserting snapshot byte-identity for the
// simulator knobs and stats.Validate invariants on every snapshot.
// Architectural agreement with the in-order oracle is checked once, for
// every registered workload, by validate's TestDifferentialWorkloadMatrix.
// Registering a kernel is enough to put it under both.

// -conformance-size selects the matrix input size, so CI can run the
// suite at "small" while the default `go test` stays fast.
var conformanceSize = flag.String("conformance-size", "test",
	"kernel conformance matrix input size (test|small)")

func matrixSize(t *testing.T) olden.Size {
	t.Helper()
	switch *conformanceSize {
	case "test":
		return olden.SizeTest
	case "small":
		return olden.SizeSmall
	}
	t.Fatalf("unknown -conformance-size %q", *conformanceSize)
	return olden.SizeTest
}

// TestKernelSnapshotEquivalence asserts that cycle skipping and block
// replay are invisible in the full statistics snapshot for every
// kernel x scheme, and that every snapshot passes stats.Validate.
func TestKernelSnapshotEquivalence(t *testing.T) {
	size := matrixSize(t)
	for _, b := range kernels.All() {
		for _, scheme := range core.Schemes() {
			b, scheme := b, scheme
			t.Run(b.Name+"/"+scheme.String(), func(t *testing.T) {
				t.Parallel()
				base := runSnap(t, b.Name, scheme, "", size, false, false)
				noskip := runSnap(t, b.Name, scheme, "", size, true, false)
				noreplay := runSnap(t, b.Name, scheme, "", size, false, true)
				if string(marshal(t, base)) != string(marshal(t, noskip)) {
					t.Errorf("snapshot diverges with cycle skipping disabled")
				}
				// The replay observability section exists exactly when
				// replay ran; every other field must match without it.
				base.Replay = nil
				noreplay.Replay = nil
				if string(marshal(t, base)) != string(marshal(t, noreplay)) {
					t.Errorf("snapshot diverges with block replay disabled")
				}
			})
		}
	}
}

// TestKernelEngineMatrix runs every kernel under every registered
// prefetch engine (scheme none, so the engine is the only prefetcher)
// with cycle skipping on and off: snapshots must agree byte-for-byte
// and validate.
func TestKernelEngineMatrix(t *testing.T) {
	size := matrixSize(t)
	for _, b := range kernels.All() {
		for _, engine := range prefetch.Names() {
			b, engine := b, engine
			t.Run(b.Name+"/"+engine, func(t *testing.T) {
				t.Parallel()
				base := runSnap(t, b.Name, core.SchemeNone, engine, size, false, false)
				noskip := runSnap(t, b.Name, core.SchemeNone, engine, size, true, false)
				if string(marshal(t, base)) != string(marshal(t, noskip)) {
					t.Errorf("snapshot diverges with cycle skipping disabled")
				}
			})
		}
	}
}

// runSnap runs one spec and returns its validated snapshot.
func runSnap(t *testing.T, bench string, scheme core.Scheme, engine string,
	size olden.Size, noSkip, noReplay bool) stats.Snapshot {
	t.Helper()
	cfg := cpu.Defaults()
	cfg.DisableCycleSkip = noSkip
	cfg.DisableBlockReplay = noReplay
	res, err := harness.Run(harness.Spec{
		Bench:  bench,
		Params: olden.Params{Scheme: scheme, Size: size},
		Engine: engine,
		CPU:    &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Stats.Validate(); err != nil {
		t.Fatalf("stats invariant violated: %v", err)
	}
	return res.Stats
}

func marshal(t *testing.T, s stats.Snapshot) []byte {
	t.Helper()
	buf, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}
