package repro

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dbp"
	"repro/internal/harness"
	"repro/internal/kernels"
	"repro/internal/olden"
	"repro/internal/stats"
)

// The benchmarks below regenerate each of the paper's evaluation
// artifacts (one per table and figure) and report the headline numbers
// as custom metrics, plus ablations over the design choices called out
// in DESIGN.md.  They run the small input so `go test -bench=.`
// finishes in minutes; `cmd/jppreport` regenerates the full-size
// artifacts recorded in EXPERIMENTS.md.

const benchSize = olden.SizeSmall

func reportSpeedup(b *testing.B, base, opt uint64) {
	b.ReportMetric(100*(float64(base)/float64(opt)-1), "%speedup")
}

// BenchmarkTable1 regenerates the benchmark characterization.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := harness.Table1(harness.ExpConfig{Size: benchSize})
		if err != nil {
			b.Fatal(err)
		}
		_ = rep
	}
}

// BenchmarkFig4 regenerates the idiom comparison.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig4(harness.ExpConfig{Size: benchSize}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates the implementation comparison and reports
// the cooperative-JPP speedup on health.  The serial/parallel pair
// measures the batch runner's wall-clock win on the heaviest artifact
// (~100 simulations); the reports themselves are byte-identical (see
// harness.TestParallelSerialIdenticalReports).
func BenchmarkFig5(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // GOMAXPROCS
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := harness.Fig5(harness.ExpConfig{Size: benchSize, Workers: cfg.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunnerWorkers sweeps the batch runner's worker bound over
// one Figure 5 benchmark group (health under every scheme, decomposed),
// exposing harness throughput as a first-class measurement.
func BenchmarkRunnerWorkers(b *testing.B) {
	var specs []harness.Spec
	for _, scheme := range core.Schemes() {
		specs = append(specs, harness.Spec{
			Bench:  "health",
			Params: olden.Params{Scheme: scheme, Size: benchSize},
		})
	}
	for _, workers := range []int{1, 2, 4, 0} {
		name := "j" + string([]byte{byte('0' + workers)})
		if workers == 0 {
			name = "jmax"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				items := harness.DecomposeBatch(specs, workers)
				for _, it := range items {
					if it.Err != nil {
						b.Fatal(it.Err)
					}
				}
			}
		})
	}
}

// BenchmarkFig6 regenerates the bandwidth comparison.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig6(harness.ExpConfig{Size: benchSize}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates the latency-scaling study.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig7(harness.ExpConfig{Size: benchSize}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCosts regenerates the overhead quantification.
func BenchmarkCosts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Costs(harness.ExpConfig{Size: benchSize}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSchemeCycles runs one benchmark/scheme pair per iteration and
// reports simulated cycles.
func benchSchemeCycles(b *testing.B, bench string, scheme Scheme, cfgfn func(*Config)) uint64 {
	b.Helper()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cfg := Config{Bench: bench, Scheme: scheme, Size: benchSize}
		if cfgfn != nil {
			cfgfn(&cfg)
		}
		res, err := Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.CPU.Cycles
	}
	b.ReportMetric(float64(cycles), "simcycles")
	return cycles
}

// BenchmarkHealthSchemes reports simulated cycles per scheme on health
// (the per-bar data of Figure 5's flagship group).
func BenchmarkHealthSchemes(b *testing.B) {
	for _, scheme := range core.Schemes() {
		b.Run(scheme.String(), func(b *testing.B) {
			benchSchemeCycles(b, "health", scheme, nil)
		})
	}
}

// BenchmarkAblationInterval sweeps the jump-pointer interval (DESIGN.md
// ablation; the paper's future-work section asks for exactly this
// study).
func BenchmarkAblationInterval(b *testing.B) {
	for _, interval := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(intervalName(interval), func(b *testing.B) {
			benchSchemeCycles(b, "health", SchemeCooperative, func(c *Config) {
				c.Interval = interval
			})
		})
	}
}

func intervalName(i int) string {
	return string([]byte{'i', byte('0' + i/10), byte('0' + i%10)})
}

// BenchmarkAblationPB compares prefetching into the dedicated prefetch
// buffer against filling the L1 directly.
func BenchmarkAblationPB(b *testing.B) {
	run := func(b *testing.B, enable bool) {
		var cycles uint64
		for i := 0; i < b.N; i++ {
			m := cache.Defaults()
			m.EnablePB = enable
			spec := harness.Spec{
				Bench:  "health",
				Params: olden.Params{Scheme: SchemeCooperative, Size: benchSize},
				Mem:    &m,
			}
			res, err := harness.Run(spec)
			if err != nil {
				b.Fatal(err)
			}
			cycles = res.CPU.Cycles
		}
		b.ReportMetric(float64(cycles), "simcycles")
	}
	b.Run("buffer", func(b *testing.B) { run(b, true) })
	// Note: disabling the PB in the spec is overridden by the scheme
	// wiring (hardware schemes enable it); the direct-fill path is
	// exercised by the software scheme instead.
	b.Run("l1direct", func(b *testing.B) {
		benchSchemeCycles(b, "health", SchemeSoftware, nil)
	})
}

// BenchmarkAblationDP sweeps the dependence predictor capacity.
func BenchmarkAblationDP(b *testing.B) {
	for _, entries := range []int{64, 256, 1024} {
		name := "dp" + string([]byte{byte('0' + entries/1000%10), byte('0' + entries/100%10), byte('0' + entries/10%10), byte('0' + entries%10)})
		b.Run(name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				d := dbp.Defaults()
				d.DPEntries = entries
				spec := harness.Spec{
					Bench:  "health",
					Params: olden.Params{Scheme: SchemeCooperative, Size: benchSize},
					DBP:    &d,
				}
				res, err := harness.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.CPU.Cycles
			}
			b.ReportMetric(float64(cycles), "simcycles")
		})
	}
}

// BenchmarkAblationJPStorage compares jump-pointer storage in allocator
// padding against a bounded on-chip table (the section 3.3 discussion).
func BenchmarkAblationJPStorage(b *testing.B) {
	run := func(b *testing.B, onChip int) {
		var cycles uint64
		for i := 0; i < b.N; i++ {
			h := core.DefaultHWConfig()
			h.OnChipTable = onChip
			spec := harness.Spec{
				Bench:  "health",
				Params: olden.Params{Scheme: SchemeHardware, Size: benchSize},
				HW:     &h,
			}
			res, err := harness.Run(spec)
			if err != nil {
				b.Fatal(err)
			}
			cycles = res.CPU.Cycles
		}
		b.ReportMetric(float64(cycles), "simcycles")
	}
	b.Run("padding", func(b *testing.B) { run(b, 0) })
	b.Run("onchip256", func(b *testing.B) { run(b, 256) })
	b.Run("onchip16k", func(b *testing.B) { run(b, 16384) })
}

// BenchmarkSimulatorThroughput measures the simulator itself: simulated
// cycles per host second on the flagship workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var cycles, insts uint64
	for i := 0; i < b.N; i++ {
		res, err := Simulate(Config{Bench: "health", Scheme: SchemeCooperative, Size: benchSize})
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.CPU.Cycles
		insts += res.CPU.Insts
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "siminsts/s")
}

// BenchmarkExtensions runs the paper's section 6 future-work
// generalizations (database trees, sparse matrices) under cooperative
// JPP.
func BenchmarkExtensions(b *testing.B) {
	for _, bench := range []string{"btree", "spmv"} {
		for _, scheme := range []Scheme{SchemeNone, SchemeCooperative} {
			b.Run(bench+"/"+scheme.String(), func(b *testing.B) {
				benchSchemeCycles(b, bench, scheme, nil)
			})
		}
	}
}

// BenchmarkAblationAdaptiveInterval compares the fixed Table 2 interval
// against the section 6 adaptive-interval controller at two memory
// latencies (the long latency is where adaptation pays).
func BenchmarkAblationAdaptiveInterval(b *testing.B) {
	run := func(b *testing.B, adaptive bool, lat int) {
		var cycles uint64
		for i := 0; i < b.N; i++ {
			h := core.DefaultHWConfig()
			h.AdaptiveInterval = adaptive
			m := cache.Defaults()
			m.MemLatency = lat
			spec := harness.Spec{
				Bench:  "health",
				Params: olden.Params{Scheme: SchemeHardware, Size: benchSize},
				HW:     &h,
				Mem:    &m,
			}
			res, err := harness.Run(spec)
			if err != nil {
				b.Fatal(err)
			}
			cycles = res.CPU.Cycles
		}
		b.ReportMetric(float64(cycles), "simcycles")
	}
	b.Run("fixed8/lat70", func(b *testing.B) { run(b, false, 70) })
	b.Run("adaptive/lat70", func(b *testing.B) { run(b, true, 70) })
	b.Run("fixed8/lat280", func(b *testing.B) { run(b, false, 280) })
	b.Run("adaptive/lat280", func(b *testing.B) { run(b, true, 280) })
}

// update makes TestEmitBenchJSON rewrite BENCH_jpp.json instead of
// comparing against it.
var update = flag.Bool("update", false, "rewrite BENCH_jpp.json from a fresh sweep")

// benchDoc is the BENCH_jpp.json layout: the per-run stats snapshots
// plus a speedup summary keyed bench -> scheme.  The snapshots field
// name is part of the schema contract — stats.ParseSnapshots (and so
// `jppreport -stats BENCH_jpp.json`) unwraps it directly.  Every field
// is a simulated result, so the document is byte-stable; simulator
// throughput is measured by the jppbench benchmark under bench/.
type benchDoc struct {
	Version    int                           `json:"version"`
	Size       string                        `json:"size"`
	Snapshots  []stats.Snapshot              `json:"snapshots"`
	SpeedupPct map[string]map[string]float64 `json:"speedup_pct"`
}

// TestEmitBenchJSON regenerates BENCH_jpp.json in memory and checks it
// byte for byte against the committed file: every scheme over a
// benchmark set, with each run's validated stats snapshot and the
// speedup-over-baseline summary.  The default run uses the small inputs
// on the flagship benchmarks, where the paper's effects are visible,
// and additionally sweeps the large inputs under the baseline and
// cooperative schemes.  Snapshots are self-describing
// (bench/scheme/size), so the mixed-size document stays consumable
// through stats.ParseSnapshots.  With -update the test rewrites the
// file instead.  Short mode covers the whole suite at the test size,
// validates the document in memory and writes nothing.
func TestEmitBenchJSON(t *testing.T) {
	size := benchSize
	benches := []string{"health", "mst", "perimeter", "treeadd", "em3d"}
	for _, b := range kernels.All() {
		benches = append(benches, b.Name)
	}
	largeBenches := benches
	if testing.Short() {
		size = olden.SizeTest
		benches = benches[:0]
		for _, bm := range olden.All() {
			benches = append(benches, bm.Name)
		}
		largeBenches = nil
	}

	var specs []harness.Spec
	for _, bench := range benches {
		for _, scheme := range core.Schemes() {
			specs = append(specs, harness.Spec{
				Bench:  bench,
				Params: olden.Params{Scheme: scheme, Size: size},
			})
		}
	}
	for _, bench := range largeBenches {
		for _, scheme := range []core.Scheme{core.SchemeNone, core.SchemeCooperative} {
			specs = append(specs, harness.Spec{
				Bench:  bench,
				Params: olden.Params{Scheme: scheme, Size: olden.SizeLarge},
			})
		}
	}
	items := harness.RunBatch(specs, 0)

	// Summary-map key: plain bench name for the primary sweep, with an
	// @size suffix for the extra large-input runs so the two sweeps of
	// the same bench never collide.
	docKey := func(s harness.Spec) string {
		if s.Params.Size == size {
			return s.Bench
		}
		return s.Bench + "@" + s.Params.Size.String()
	}

	doc := benchDoc{
		Version:    stats.SchemaVersion,
		Size:       size.String(),
		SpeedupPct: make(map[string]map[string]float64),
	}
	baseline := make(map[string]uint64)
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("%s/%v: %v", specs[i].Bench, specs[i].Params.Scheme, it.Err)
		}
		snap := it.Result.Stats
		doc.Snapshots = append(doc.Snapshots, snap)
		if specs[i].Params.Scheme == core.SchemeNone {
			baseline[docKey(specs[i])] = snap.Cycles
		}
	}
	for i, it := range items {
		spec := specs[i]
		key := docKey(spec)
		base, cycles := baseline[key], it.Result.Stats.Cycles
		if spec.Params.Scheme == core.SchemeNone || base == 0 || cycles == 0 {
			continue
		}
		m := doc.SpeedupPct[key]
		if m == nil {
			m = make(map[string]float64)
			doc.SpeedupPct[key] = m
		}
		m[spec.Params.Scheme.String()] = 100 * (float64(base)/float64(cycles) - 1)
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')

	// The document must be consumable through the same entry point
	// jppreport uses, with every snapshot valid.
	snaps, err := stats.ParseSnapshots(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != len(specs) {
		t.Fatalf("document holds %d snapshots, want %d", len(snaps), len(specs))
	}
	for i, s := range snaps {
		if err := s.Validate(); err != nil {
			t.Fatalf("snapshot %d (%s/%s): %v", i, s.Bench, s.Scheme, err)
		}
	}

	switch {
	case testing.Short():
		t.Logf("validated %d snapshots (%s size), %d benches; nothing written", len(snaps), doc.Size, len(benches))
	case *update:
		if err := os.WriteFile("BENCH_jpp.json", data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote BENCH_jpp.json: %d snapshots (%s size), %d benches", len(snaps), doc.Size, len(benches))
	default:
		committed, err := os.ReadFile("BENCH_jpp.json")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, committed) {
			t.Fatalf("BENCH_jpp.json differs from a fresh sweep at line %d; "+
				"if the change to simulated results is intended, rerun with -update",
				firstDiffLine(data, committed))
		}
	}
}

// firstDiffLine returns the 1-based line where a and b first differ.
func firstDiffLine(a, b []byte) int {
	line := 1
	for i := 0; i < len(a) && i < len(b) && a[i] == b[i]; i++ {
		if a[i] == '\n' {
			line++
		}
	}
	return line
}
