package harness

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/olden"
)

// TestCycleSkipEquivalence pins the event-driven cycle-skipping
// contract: for every kernel under every scheme, the full statistics
// snapshot — cycles, attribution, prefetch outcomes, cache counters,
// everything — is byte-identical whether the core simulates each
// quiescent cycle or jumps over them.  Skipping is a pure simulator
// optimisation and must never be observable in results; see
// Core.nextEventAt for the invariants that make this hold.  The kernels
// run at the test size, where cooperative JPP fills no prefetch-buffer
// line, so health under coop also runs at the small size, where the
// buffer fills and hits.
func TestCycleSkipEquivalence(t *testing.T) {
	t.Parallel()
	for _, c := range equivalenceCases() {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			run := func(disable bool) ([]byte, Result) {
				cfg := cpu.Defaults()
				cfg.DisableCycleSkip = disable
				res, err := Run(Spec{
					Bench:  c.bench,
					Params: olden.Params{Scheme: c.scheme, Size: c.size},
					CPU:    &cfg,
				})
				if err != nil {
					t.Fatal(err)
				}
				buf, err := json.Marshal(res.Stats)
				if err != nil {
					t.Fatal(err)
				}
				return buf, res
			}
			skipped, res := run(false)
			cycled, _ := run(true)
			if string(skipped) != string(cycled) {
				t.Errorf("snapshot diverges with cycle skipping enabled\nskip:  %s\nplain: %s",
					skipped, cycled)
			}
			c.check(t, res)
		})
	}
}

// equivalenceCase is one run the simulator-optimisation equivalence
// tests compare with the optimisation on and off.
type equivalenceCase struct {
	name   string
	bench  string
	scheme core.Scheme
	size   olden.Size
	// pb requires the run to fill and hit the prefetch buffer.
	pb bool
}

// equivalenceCases is every registered kernel under every scheme at the
// test size, then health under coop at the small size, which must reach
// the prefetch buffer's fill and hit paths.
func equivalenceCases() []equivalenceCase {
	var cases []equivalenceCase
	for _, b := range olden.All() {
		for _, scheme := range core.Schemes() {
			cases = append(cases, equivalenceCase{b.Name + "/" + scheme.String(), b.Name, scheme, olden.SizeTest, false})
		}
	}
	return append(cases, equivalenceCase{"health/coop/small", "health", core.SchemeCooperative, olden.SizeSmall, true})
}

// check fails a pb case whose run did not fill and hit the buffer, so
// the leg cannot pass without exercising it.
func (c equivalenceCase) check(t *testing.T, res Result) {
	t.Helper()
	if k := res.Cache; c.pb && (k.PBFills == 0 || k.PBHits == 0) {
		t.Errorf("%d buffer fills and %d hits; the leg must exercise the buffer", k.PBFills, k.PBHits)
	}
}

// benchRun measures end-to-end simulator throughput on one
// representative kernel, with and without cycle skipping, so the win
// from event-driven skipping stays visible in `go test -bench`.
func benchRun(b *testing.B, disable bool) {
	cfg := cpu.Defaults()
	cfg.DisableCycleSkip = disable
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := Run(Spec{
			Bench:  "health",
			Params: olden.Params{Scheme: core.SchemeCooperative, Size: olden.SizeSmall},
			CPU:    &cfg,
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.CPU.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
}

func BenchmarkRunSkip(b *testing.B)   { benchRun(b, false) }
func BenchmarkRunNoSkip(b *testing.B) { benchRun(b, true) }
