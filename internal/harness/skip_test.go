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
// Core.nextEventAt for the invariants that make this hold.
func TestCycleSkipEquivalence(t *testing.T) {
	t.Parallel()
	for _, b := range olden.All() {
		for _, scheme := range core.Schemes() {
			b, scheme := b, scheme
			t.Run(b.Name+"/"+scheme.String(), func(t *testing.T) {
				t.Parallel()
				run := func(disable bool) []byte {
					cfg := cpu.Defaults()
					cfg.DisableCycleSkip = disable
					res, err := Run(Spec{
						Bench:  b.Name,
						Params: olden.Params{Scheme: scheme, Size: olden.SizeTest},
						CPU:    &cfg,
					})
					if err != nil {
						t.Fatal(err)
					}
					buf, err := json.Marshal(res.Stats)
					if err != nil {
						t.Fatal(err)
					}
					return buf
				}
				skipped, cycled := run(false), run(true)
				if string(skipped) != string(cycled) {
					t.Errorf("snapshot diverges with cycle skipping enabled\nskip:  %s\nplain: %s",
						skipped, cycled)
				}
			})
		}
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
