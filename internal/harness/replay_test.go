package harness

import (
	"encoding/json"
	"testing"

	"repro/internal/cpu"
	"repro/internal/olden"
)

// TestBlockReplayEquivalence pins the block-replay contract end to end:
// for every kernel under every scheme, with cycle skipping both on and
// off, the full statistics snapshot is byte-identical whether the
// generator runs the decoded basic-block replay cache (template-verified
// emission and metadata) or per-instruction emission with live
// metadata; the core's span dispatch is the same in both.  Replay is a
// pure simulator optimisation and must never be observable in results;
// the replay observability section is the one intentional difference,
// so it is normalized away before comparing.  The cases are the cycle
// skip test's (equivalenceCases), health under coop at the small size
// among them.
func TestBlockReplayEquivalence(t *testing.T) {
	t.Parallel()
	for _, c := range equivalenceCases() {
		for _, noskip := range []bool{false, true} {
			name := c.name
			if noskip {
				name += "/noskip"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				run := func(disableReplay bool) ([]byte, Result) {
					cfg := cpu.Defaults()
					cfg.DisableCycleSkip = noskip
					cfg.DisableBlockReplay = disableReplay
					res, err := Run(Spec{
						Bench:  c.bench,
						Params: olden.Params{Scheme: c.scheme, Size: c.size},
						CPU:    &cfg,
					})
					if err != nil {
						t.Fatal(err)
					}
					// The replay section exists exactly when replay ran;
					// every architectural field must match without it.
					res.Stats.Replay = nil
					buf, err := json.Marshal(res.Stats)
					if err != nil {
						t.Fatal(err)
					}
					return buf, res
				}
				replayed, res := run(false)
				classic, _ := run(true)
				if string(replayed) != string(classic) {
					t.Errorf("snapshot diverges with block replay enabled\nreplay:  %s\nclassic: %s",
						replayed, classic)
				}
				c.check(t, res)
			})
		}
	}
}
