package repro

import (
	"flag"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/olden"
)

// BenchmarkCore measures raw simulator throughput, one sub-benchmark
// per Olden kernel (plus the §6 extensions), under the cooperative
// scheme — the configuration that exercises every engine path.  Each
// sub-benchmark reports:
//
//	sim_mips     simulated (committed) instructions per host second, /1e6
//	simcycles/s  simulated cycles per host second
//
// These are quick in-process figures; throughput claims are measured
// with the jppbench benchmark under bench/ (see bench/README.md).
func BenchmarkCore(b *testing.B) {
	for _, bm := range olden.All() {
		b.Run(bm.Name, func(b *testing.B) {
			var insts, cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := harness.Run(harness.Spec{
					Bench:  bm.Name,
					Params: olden.Params{Scheme: core.SchemeCooperative, Size: benchSize},
				})
				if err != nil {
					b.Fatal(err)
				}
				insts += res.CPU.Insts
				cycles += res.CPU.Cycles
			}
			sec := b.Elapsed().Seconds()
			b.ReportMetric(float64(insts)/sec/1e6, "sim_mips")
			b.ReportMetric(float64(cycles)/sec, "simcycles/s")
		})
	}
}

// perfSmoke gates TestReplayPerfSmoke: the test measures wall-clock
// throughput, so it only runs when asked for explicitly (the CI perf
// step) rather than inside every `go test ./...`.
var perfSmoke = flag.Bool("perfsmoke", false,
	"run the replay on/off throughput smoke (wall-clock sensitive)")

// TestReplayPerfSmoke asserts the generator's block-replay cache is
// never slower than live-metadata emission beyond noise.  Both modes
// run the same span dispatch in the core, so the comparison isolates
// the emission memoizer.  It interleaves replay-on and replay-off runs
// of a few representative kernels (small inputs, cooperative scheme),
// takes the best sim-MIPS of each mode per kernel, and requires the
// replay-on geomean to stay above 75% of the replay-off geomean — a
// bound loose enough for shared CI runners but far above any systematic
// replay regression.
func TestReplayPerfSmoke(t *testing.T) {
	if !*perfSmoke {
		t.Skip("pass -perfsmoke to run the replay throughput smoke")
	}
	kernels := []string{"health", "mst", "treeadd"}
	const rounds = 3

	best := make(map[string][2]float64) // kernel -> [replay-on, replay-off] best sim-MIPS
	measure := func(bench string, disable bool) float64 {
		cfg := cpu.Defaults()
		cfg.DisableBlockReplay = disable
		start := time.Now()
		res, err := harness.Run(harness.Spec{
			Bench:  bench,
			Params: olden.Params{Scheme: core.SchemeCooperative, Size: olden.SizeSmall},
			CPU:    &cfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.CPU.Insts) / time.Since(start).Seconds() / 1e6
	}
	// Interleave modes within each round so host-load drift hits both
	// sides equally; best-of-rounds discards transient slowdowns.
	for r := 0; r < rounds; r++ {
		for _, k := range kernels {
			b := best[k]
			if m := measure(k, false); m > b[0] {
				b[0] = m
			}
			if m := measure(k, true); m > b[1] {
				b[1] = m
			}
			best[k] = b
		}
	}

	logOn, logOff := 0.0, 0.0
	for _, k := range kernels {
		b := best[k]
		t.Logf("%-10s replay-on %.2f sim-MIPS, replay-off %.2f (%.2fx)", k, b[0], b[1], b[0]/b[1])
		logOn += math.Log(b[0])
		logOff += math.Log(b[1])
	}
	on := math.Exp(logOn / float64(len(kernels)))
	off := math.Exp(logOff / float64(len(kernels)))
	t.Logf("geomean: replay-on %.2f sim-MIPS, replay-off %.2f (%.2fx)", on, off, on/off)
	if on < 0.75*off {
		t.Errorf("replay-on geomean %.2f sim-MIPS below 75%% of replay-off %.2f", on, off)
	}
}
