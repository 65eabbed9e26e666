// Command jppchar dumps the raw per-benchmark characterization data
// behind the paper's Table 1: execution-time decomposition, miss mix,
// miss parallelism and working-set footprint, for every scheme.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/olden"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "jppchar:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("jppchar", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		size  = fs.String("size", "full", "test|small|full|large")
		bench = fs.String("bench", "", "restrict to a comma-separated benchmark list")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sz, err := olden.ParseSize(*size)
	if err != nil {
		return err
	}

	names := []string{}
	for _, b := range repro.Benchmarks() {
		names = append(names, b.Name)
	}
	if *bench != "" {
		names = strings.Split(*bench, ",")
	}

	fmt.Fprintf(out, "%-10s %-5s %9s %9s %7s %8s %8s %9s %8s\n",
		"bench", "schm", "cycles", "insts", "IPC", "L1Dmiss", "L2miss", "B/inst", "footKB")
	for _, name := range names {
		for _, scheme := range core.Schemes() {
			res, err := repro.Simulate(repro.Config{
				Bench: name, Scheme: scheme, Size: sz,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-10s %-5v %9d %9d %7.3f %8d %8d %9.2f %8d\n",
				name, scheme, res.CPU.Cycles, res.CPU.Insts, res.CPU.IPC(),
				res.Cache.L1DMisses, res.Cache.L2Misses,
				float64(res.Cache.L1L2Bytes)/float64(res.Insts.OrigInsts),
				res.Cache.DistinctL1Lines*32/1024)
		}
	}
	return nil
}
