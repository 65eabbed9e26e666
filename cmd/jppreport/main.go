// Command jppreport regenerates the paper's tables and figures.
//
// Usage:
//
//	jppreport                 # everything, full-size inputs
//	jppreport -exp fig5       # one artifact
//	jppreport -size small     # faster, smaller inputs
//	jppreport -bench health   # restrict to one benchmark
//	jppreport -j 4            # cap concurrent simulations (0 = all cores)
//	jppreport -stats a.json,b.json  # render the Fig. 6-style cycle
//	                          # attribution table from jppsim -stats-json
//	                          # snapshots instead of running simulations
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/harness"
	"repro/internal/olden"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "jppreport:", err)
		os.Exit(1)
	}
}

// run drives the report generation; factored out of main so tests can
// exercise the full flag-to-report path.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("jppreport", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "", "experiment id (default: all); one of "+strings.Join(repro.ExperimentIDs(), ","))
		size      = fs.String("size", "full", "test|small|full")
		bench     = fs.String("bench", "", "restrict to a comma-separated benchmark list")
		jobs      = fs.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
		statsList = fs.String("stats", "", "render the attribution table from comma-separated stats-JSON files (no simulations)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *statsList != "" {
		return renderStats(strings.Split(*statsList, ","), out)
	}

	cfg := repro.ExpConfig{Workers: *jobs}
	var err error
	// large only stresses the simulator (olden.SizeLarge); no artifact uses it.
	if cfg.Size, err = olden.ParseSize(*size); err != nil || cfg.Size == olden.SizeLarge {
		return fmt.Errorf("unknown size %q", *size)
	}
	if *bench != "" {
		cfg.Benches = strings.Split(*bench, ",")
	}

	ids := repro.ExperimentIDs()
	if *exp != "" {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		start := time.Now()
		rep, err := repro.Reproduce(id, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintln(out, rep.Text)
		fmt.Fprintf(out, "[%s regenerated in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// renderStats loads jppsim -stats-json snapshots (single objects or
// arrays, e.g. BENCH_jpp.json) from the named files, validates each
// against the schema's accounting invariants, and prints one combined
// Fig. 6-style attribution table.
func renderStats(paths []string, out io.Writer) error {
	var snaps []stats.Snapshot
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		got, err := stats.ParseSnapshots(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for i, s := range got {
			if err := s.Validate(); err != nil {
				return fmt.Errorf("%s[%d]: %w", path, i, err)
			}
		}
		snaps = append(snaps, got...)
	}
	if len(snaps) == 0 {
		return fmt.Errorf("no snapshots in %v", paths)
	}
	fmt.Fprint(out, harness.RenderAttribution(snaps))
	return nil
}
