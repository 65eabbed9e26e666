// Command jppbench is the simulator's benchmark.  It times four fixed
// workloads end to end and, in a separate traced pass, attributes the
// host time to the simulator's layers.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload olden-jpp --seed 1 --seconds 25 --trace 0
//	go -C bench run ./jppbench -seed 1 -out /tmp/jppbench
//
// Each workload prints "workload metric value unit" lines, then one
// JSON line: {"correct", "attempted", "failed", "metrics"}.  With
// -trace 0 the metrics are the end-to-end ones, with -trace 1 the
// per-layer ones.  -out DIR also writes <workload>.json (value, median,
// quartiles, n and an unresolved flag per metric) or, for the traced
// pass, trace.json with every span.  bench/README.md describes the
// workloads, the metrics and the A/B protocol.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// metricDef is one metric BENCHMARK.json declares.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

var endToEnd = []metricDef{
	{"sim_mips", "Minst/cpu_s", "higher", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"alloc_mb", "MB", "lower", 0.05},
}

var perLayer = []metricDef{
	{name: "ir.emit_ns_per_inst", unit: "ns", better: "lower"},
	{name: "ir.share", unit: "%", better: "lower"},
	{name: "ir.replay_hit_rate", unit: "ratio", better: "higher"},
	{name: "cache.ns_per_access", unit: "ns", better: "lower"},
	{name: "cache.share", unit: "%", better: "lower"},
	{name: "cache.l1d_mpki", unit: "miss/kinst", better: "lower"},
	{name: "cache.l2_mpki", unit: "miss/kinst", better: "lower"},
	{name: "bpred.ns_per_branch", unit: "ns", better: "lower"},
	{name: "bpred.share", unit: "%", better: "lower"},
	{name: "prefetch.ns_per_call", unit: "ns", better: "lower"},
	{name: "prefetch.share", unit: "%", better: "lower"},
	{name: "prefetch.calls_per_kinst", unit: "call/kinst", better: "lower"},
	{name: "prefetch.ticks_per_kcycle", unit: "tick/kcycle", better: "lower"},
	{name: "prefetch.pb_fills_per_kinst", unit: "fill/kinst", better: "higher"},
	{name: "cpu.residual_ns_per_cycle", unit: "ns", better: "lower"},
	{name: "cpu.share", unit: "%", better: "lower"},
	{name: "cpu.sim_cycles", unit: "cycle", better: "lower"},
	{name: "cpu.ipc", unit: "inst/cycle", better: "higher"},
	{name: "harness.setup_us_per_run", unit: "us", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "trace.clock_ns", unit: "ns", better: "lower"},
}

// metricValue is a measured value outside the declared set.
type metricValue struct {
	metricDef
	value float64
}

// outcome is one workload's result.
type outcome struct {
	workload                  string
	attempted, failed, passes int
	// digest is sim_digest: sha256 over every item's validated output in
	// canonical order, independent of the seed (timed passes only).
	digest string
	values map[string]quartiles
	// extra holds values printed beside the declared metrics: a timed
	// pass's unscaled times, the traced paper-artifacts pass's
	// per-artifact times.
	extra []metricValue
	// itemCPUs, itemWalls and itemProbes hold every run's CPU time, wall
	// time and mean speed-probe time around it per item, and speeds every
	// speed probe's CPU time (timed passes).
	itemCPUs, itemWalls, itemProbes map[string][]float64
	speeds                          []float64
	notes                           []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name string, q quartiles) {
	if o.values == nil {
		o.values = map[string]quartiles{}
	}
	o.values[name] = q
}

func (o *outcome) setValue(name string, v float64) {
	o.set(name, quartiles{value: v, q1: v, med: v, q3: v, n: 1})
}

func (o *outcome) failedPct() float64 {
	return 100 * ratio(float64(o.failed), float64(o.attempted))
}

// num formats a value with all its digits.
func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// print writes the workload's metric lines and its JSON result line.
func (o *outcome) print(w io.Writer, defs []metricDef) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, map[string]jsonMetric{}}
	for _, d := range defs {
		v := o.values[d.name].value
		res.Metrics[d.name] = jsonMetric{v, d.unit}
		fmt.Fprintf(w, "%s %s %s %s\n", o.workload, d.name, num(v), d.unit)
	}
	for _, e := range o.extra {
		fmt.Fprintf(w, "%s %s %s %s\n", o.workload, e.name, num(e.value), e.unit)
	}
	fmt.Fprintf(w, "%s failed_pct %s %%\n", o.workload, num(o.failedPct()))
	fmt.Fprintf(w, "%s passes %d count\n", o.workload, o.passes)
	if o.digest != "" {
		fmt.Fprintf(w, "%s sim_digest %s sha256\n", o.workload, o.digest)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// record is the -out form of an outcome: every metric's value, median,
// quartiles and sample count, flagged unresolved when its spread
// exceeds its bound.
func (o *outcome) record(defs []metricDef, seed uint64) map[string]any {
	type fileMetric struct {
		Value      float64 `json:"value"`
		Median     float64 `json:"median"`
		Q1         float64 `json:"q1"`
		Q3         float64 `json:"q3"`
		N          int     `json:"n"`
		Unit       string  `json:"unit"`
		Bound      float64 `json:"bound,omitempty"`
		Unresolved bool    `json:"unresolved,omitempty"`
	}
	metrics := map[string]fileMetric{}
	for _, d := range defs {
		q := o.values[d.name]
		metrics[d.name] = fileMetric{
			Value: q.value, Median: q.med, Q1: q.q1, Q3: q.q3, N: q.n, Unit: d.unit, Bound: d.bound,
			Unresolved: d.bound > 0 && q.q3-q.q1 > d.bound*q.med,
		}
	}
	for _, e := range o.extra {
		metrics[e.name] = fileMetric{Value: e.value, Median: e.value, Q1: e.value, Q3: e.value, N: 1, Unit: e.unit}
	}
	return map[string]any{
		"workload":     o.workload,
		"seed":         seed,
		"passes":       o.passes,
		"attempted":    o.attempted,
		"failed":       o.failed,
		"failed_pct":   o.failedPct(),
		"sim_digest":   o.digest,
		"notes":        o.notes,
		"metrics":      metrics,
		"item_cpu_s":   o.itemCPUs,
		"item_wall_s":  o.itemWalls,
		"item_probe_s": o.itemProbes,
		"speed_s":      o.speeds,
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	if arg := os.Getenv(probeEnv); arg != "" {
		if err := setupProbe(arg); err != nil {
			fmt.Fprintln(os.Stderr, "jppbench setup probe:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the benchmark's command line; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jppbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: olden-base, olden-jpp, kernels-churn, paper-artifacts or all")
	seed := fs.Uint64("seed", 1, "seed permuting the order of the simulations in each pass")
	seconds := fs.Float64("seconds", 25, "time the timed passes of each workload run for; the first pass always completes")
	trace := fs.Int("trace", 0, "0 runs the timed passes, 1 the traced pass")
	out := fs.String("out", "", "directory to write JSON results to (none when empty)")
	sizeName := fs.String("size", "", "input size replacing every workload's own: test, small, full or large")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	size, err := parseSize(*sizeName)
	if err == nil && fs.NArg() > 0 {
		err = fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	var selected []workload
	for _, w := range workloads(size) {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if err == nil && len(selected) == 0 {
		err = fmt.Errorf("unknown workload %q", *name)
	}
	if err != nil {
		fmt.Fprintln(stderr, "jppbench:", err)
		return 2
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(stderr, "jppbench:", err)
			return 1
		}
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	var traced []map[string]any
	var spans []span
	for _, w := range selected {
		var o *outcome
		if *trace == 1 {
			var s []span
			o, s = tracePass(w, *seed)
			spans = append(spans, s...)
		} else {
			o = timedPass(w, *seed, *seconds)
		}
		for _, n := range o.notes {
			fmt.Fprintf(stderr, "jppbench: %s: %s\n", w.name, n)
		}
		if err := o.print(stdout, defs); err != nil {
			fmt.Fprintln(stderr, "jppbench:", err)
			return 1
		}
		if *out == "" {
			continue
		}
		if *trace == 1 {
			traced = append(traced, o.record(defs, *seed))
		} else if err := writeJSON(filepath.Join(*out, w.name+".json"), o.record(defs, *seed)); err != nil {
			fmt.Fprintln(stderr, "jppbench:", err)
			return 1
		}
	}
	if *out != "" && *trace == 1 {
		doc := map[string]any{"workloads": traced, "spans": spans}
		if err := writeJSON(filepath.Join(*out, "trace.json"), doc); err != nil {
			fmt.Fprintln(stderr, "jppbench:", err)
			return 1
		}
	}
	return 0
}
