package harness

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
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
// so it is normalized away before comparing.
func TestBlockReplayEquivalence(t *testing.T) {
	t.Parallel()
	for _, b := range olden.All() {
		for _, scheme := range core.Schemes() {
			for _, noskip := range []bool{false, true} {
				b, scheme, noskip := b, scheme, noskip
				name := b.Name + "/" + scheme.String()
				if noskip {
					name += "/noskip"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					run := func(disableReplay bool) []byte {
						cfg := cpu.Defaults()
						cfg.DisableCycleSkip = noskip
						cfg.DisableBlockReplay = disableReplay
						res, err := Run(Spec{
							Bench:  b.Name,
							Params: olden.Params{Scheme: scheme, Size: olden.SizeTest},
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
						return buf
					}
					replayed, classic := run(false), run(true)
					if string(replayed) != string(classic) {
						t.Errorf("snapshot diverges with block replay enabled\nreplay:  %s\nclassic: %s",
							replayed, classic)
					}
				})
			}
		}
	}
}
