package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dbp"
	"repro/internal/olden"
	"repro/internal/prefetch"
)

// ExpConfig parameterizes experiment reproduction.
type ExpConfig struct {
	// Size selects workload scaling (default olden.SizeFull).
	Size olden.Size
	// Benches restricts the benchmark set (nil = all).
	Benches []string
	// Workers bounds how many simulations run concurrently (<= 0 =
	// GOMAXPROCS, 1 = serial).  Reports are byte-identical for every
	// worker count: the drivers declare their spec sets up front and
	// assemble output from ordered batch results.
	Workers int
}

// benches resolves the benchmark filter (nil = the paper suite).  An
// unknown name is an error naming every unknown one, so a typo never
// renders an empty report.
func (c ExpConfig) benches() ([]*olden.Benchmark, error) {
	if len(c.Benches) == 0 {
		return olden.Suite(), nil
	}
	var (
		out     []*olden.Benchmark
		unknown []string
	)
	for _, n := range c.Benches {
		if b, ok := olden.ByName(n); ok {
			out = append(out, b)
		} else {
			unknown = append(unknown, fmt.Sprintf("%q", n))
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("harness: unknown benchmark %s", strings.Join(unknown, ", "))
	}
	return out, nil
}

// selectsAny checks the filter against an experiment that covers a
// fixed set of benchmarks: with a filter set, it must name at least one
// of them, so a filter that selects none is an error naming the
// benchmarks the experiment covers rather than an empty or unfiltered
// report.  It also rejects unknown names, as benches does.
func (c ExpConfig) selectsAny(exp string, covered ...string) error {
	if len(c.Benches) == 0 {
		return nil
	}
	if _, err := c.benches(); err != nil {
		return err
	}
	for _, n := range covered {
		if containsStr(c.Benches, n) {
			return nil
		}
	}
	return fmt.Errorf("harness: %s covers only %s; the benchmark filter selects none of them",
		exp, strings.Join(covered, ", "))
}

// Report is a rendered experiment result.
type Report struct {
	ID    string
	Title string
	Text  string
}

func (r Report) String() string { return r.Text }

// ExpFunc runs one experiment.
type ExpFunc func(ExpConfig) (Report, error)

// Experiments returns the registry of reproducible paper artifacts, in
// paper order.
func Experiments() []struct {
	ID  string
	Fn  ExpFunc
	Doc string
} {
	return []struct {
		ID  string
		Fn  ExpFunc
		Doc string
	}{
		{"table1", Table1, "benchmark characterization"},
		{"table2", Table2, "simulated machine configuration"},
		{"fig4", Fig4, "comparing JPP idioms (software & cooperative)"},
		{"fig5", Fig5, "comparing prefetching implementations"},
		{"fig6", Fig6, "bandwidth requirements (L1<->L2 bytes per instruction)"},
		{"fig7", Fig7, "tolerating longer memory latencies (health)"},
		{"costs", Costs, "direct and implicit costs of JPP"},
		{"shootout", Shootout, "cross-prefetcher shootout (every registered engine)"},
	}
}

// ExperimentByID finds an experiment.
func ExperimentByID(id string) (ExpFunc, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Fn, true
		}
	}
	return nil, false
}

// --- Table 1: benchmark characterization -----------------------------

// Table1 reproduces the paper's benchmark characterization: the share
// of execution time spent stalled on memory, how much of it is due to
// LDS loads, the available miss parallelism, and the structure/idiom
// summary.
func Table1(cfg ExpConfig) (Report, error) {
	benches, err := cfg.benches()
	if err != nil {
		return Report{}, err
	}
	items := DecomposeBatch(table1Specs(benches, cfg.Size), cfg.Workers)
	if err := firstDecompErr(items); err != nil {
		return Report{}, err
	}
	var rows [][]string
	for i, b := range benches {
		d := items[i].Decomp
		r := d.Full
		memShare := 0.0
		if d.Total > 0 {
			memShare = float64(d.Memory()) / float64(d.Total)
		}
		ldsShare := 0.0
		if m := r.CPU.LDSLoadMiss + r.CPU.OtherMiss; m > 0 {
			ldsShare = float64(r.CPU.LDSLoadMiss) / float64(m)
		}
		idioms := make([]string, len(b.Idioms))
		for j, id := range b.Idioms {
			idioms[j] = id.String()
		}
		rows = append(rows, []string{
			b.Name,
			fmt.Sprintf("%.0f%%", 100*memShare),
			fmt.Sprintf("%.0f%%", 100*ldsShare),
			fmt.Sprintf("%.2f", r.CPU.AvgMissOverlap()),
			fmt.Sprintf("%d", b.Traversals),
			b.Structures,
			strings.Join(idioms, ","),
		})
	}
	text := renderTable("Table 1: benchmark characterization",
		[]string{"bench", "mem-stall", "LDS-miss", "miss-par", "passes", "structures", "idioms"},
		rows)
	return Report{ID: "table1", Title: "Benchmark characterization", Text: text}, nil
}

// table1Specs is Table 1's spec set: every benchmark unoptimized.
func table1Specs(benches []*olden.Benchmark, size olden.Size) []Spec {
	specs := make([]Spec, len(benches))
	for i, b := range benches {
		specs[i] = Spec{
			Bench:  b.Name,
			Params: olden.Params{Scheme: core.SchemeNone, Size: size},
		}
	}
	return specs
}

// --- Table 2: machine configuration ----------------------------------

// Table2 prints the simulated machine configuration actually used,
// mirroring the paper's Table 2.
func Table2(ExpConfig) (Report, error) {
	m := cache.Defaults()
	c := cpu.Defaults()
	d := dbp.Defaults()
	h := core.DefaultHWConfig()
	b := bpred.Defaults()
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 2: simulated machine configuration\n")
	fmt.Fprintf(&sb, "----------------------------------------\n")
	fmt.Fprintf(&sb, "core:   %d-wide fetch/issue/commit, %d-entry window, %d-entry LSQ, %d cache ports\n",
		c.FetchWidth, c.WindowSize, c.LSQSize, c.MemPorts)
	fmt.Fprintf(&sb, "bpred:  %d-entry combined gshare(%d-bit)/bimodal, %d-entry %d-way BTB\n",
		b.Entries, b.HistoryBits, b.BTBEntries, b.BTBAssoc)
	fmt.Fprintf(&sb, "L1I:    %dKB %dB lines %d-way, %d cycle\n",
		m.L1I.SizeBytes>>10, m.L1I.LineBytes, m.L1I.Assoc, m.L1I.LatCycles)
	fmt.Fprintf(&sb, "L1D:    %dKB %dB lines %d-way, %d cycle, %d MSHRs\n",
		m.L1D.SizeBytes>>10, m.L1D.LineBytes, m.L1D.Assoc, m.L1D.LatCycles, m.MSHRs)
	fmt.Fprintf(&sb, "L2:     %dKB %dB lines %d-way, %d cycle (shared)\n",
		m.L2.SizeBytes>>10, m.L2.LineBytes, m.L2.Assoc, m.L2.LatCycles)
	fmt.Fprintf(&sb, "memory: %d cycles; %dB buses at 1/%d and 1/%d core clock\n",
		m.MemLatency, m.ChunkBytes, m.L1L2ChunkCycles, m.MemChunkCycles)
	fmt.Fprintf(&sb, "TLBs:   %d-entry ITLB, %d-entry DTLB, %d-cycle miss, %dB pages\n",
		m.ITLBEntries, m.DTLBEntries, m.TLBMissCycles, m.PageBytes)
	fmt.Fprintf(&sb, "DBP:    %d-entry %d-way dependence predictor, %d queries/cycle,\n"+
		"        %d-entry PRQ, %dKB %d-way prefetch buffer\n",
		d.DPEntries, d.DPAssoc, d.QueriesPerCycle, d.PRQEntries,
		m.PB.SizeBytes>>10, m.PB.Assoc)
	fmt.Fprintf(&sb, "JPP:    %d-entry fully-associative JQT, interval %d, 1 JPR access/cycle\n",
		h.JQTEntries, h.Interval)
	return Report{ID: "table2", Title: "Machine configuration", Text: sb.String()}, nil
}

// --- Figure 4: comparing idioms --------------------------------------

// fig4Matrix lists which idioms Figure 4 evaluates per benchmark.
var fig4Matrix = []struct {
	Bench  string
	Idioms []core.Idiom
}{
	{"em3d", []core.Idiom{core.IdiomQueue, core.IdiomFull}},
	{"health", []core.Idiom{core.IdiomChain, core.IdiomRoot, core.IdiomQueue, core.IdiomFull}},
	{"mst", []core.Idiom{core.IdiomRoot, core.IdiomQueue}},
	{"treeadd", []core.Idiom{core.IdiomQueue}},
}

// Fig4 reproduces the idiom comparison: for each benchmark with more
// than one applicable idiom, software and cooperative execution times
// per idiom, normalized to the unoptimized run.
func Fig4(cfg ExpConfig) (Report, error) {
	covered := make([]string, len(fig4Matrix))
	for i, ent := range fig4Matrix {
		covered[i] = ent.Bench
	}
	if err := cfg.selectsAny("fig4", covered...); err != nil {
		return Report{}, err
	}
	entries, specs := fig4Specs(cfg)
	items := DecomposeBatch(specs, cfg.Workers)
	if err := firstDecompErr(items); err != nil {
		return Report{}, err
	}
	text := renderBars("Figure 4: comparing JPP idioms (normalized execution time)", barGroups(entries, items))
	return Report{ID: "fig4", Title: "Comparing idioms", Text: text}, nil
}

// barEntry is one bar group of Figures 4 and 7: its label and the
// labels of its bars, whose specs sit consecutively in the spec set,
// the first being the group's normalization baseline.
type barEntry struct {
	group  string
	labels []string
}

// barGroups assembles the bar groups of entries from their
// decompositions, in spec-set order.
func barGroups(entries []barEntry, items []DecompItem) []BarGroup {
	var groups []BarGroup
	next := 0
	for _, e := range entries {
		base := items[next].Decomp
		g := BarGroup{Label: e.group}
		for _, label := range e.labels {
			g.Bars = append(g.Bars, barFromDecomp(label, items[next].Decomp, base.Total))
			next++
		}
		groups = append(groups, g)
	}
	return groups
}

// fig4Specs is Figure 4's spec set: per selected benchmark, the
// baseline followed by every scheme/idiom variant, flattened in render
// order.
func fig4Specs(cfg ExpConfig) ([]barEntry, []Spec) {
	var (
		entries []barEntry
		specs   []Spec
	)
	for _, ent := range fig4Matrix {
		if len(cfg.Benches) > 0 && !containsStr(cfg.Benches, ent.Bench) {
			continue
		}
		e := barEntry{group: ent.Bench, labels: []string{"none"}}
		specs = append(specs, Spec{
			Bench:  ent.Bench,
			Params: olden.Params{Scheme: core.SchemeNone, Size: cfg.Size},
		})
		for _, idiom := range ent.Idioms {
			for _, scheme := range []core.Scheme{core.SchemeSoftware, core.SchemeCooperative} {
				e.labels = append(e.labels, scheme.String()+"/"+idiom.String())
				specs = append(specs, Spec{
					Bench: ent.Bench,
					Params: olden.Params{
						Scheme: scheme, Idiom: idiom, Size: cfg.Size,
					},
				})
			}
		}
		entries = append(entries, e)
	}
	return entries, specs
}

// --- Figure 5: comparing implementations ------------------------------

// Fig5 reproduces the implementation comparison: every benchmark under
// none/DBP/software/cooperative/hardware, normalized execution time
// decomposed into compute and memory stall.
func Fig5(cfg ExpConfig) (Report, error) {
	groups, _, err := fig5Data(cfg)
	if err != nil {
		return Report{}, err
	}
	text := renderBars("Figure 5: comparing prefetching implementations (normalized execution time)", groups)
	text += fig5Summary(groups)
	return Report{ID: "fig5", Title: "Comparing implementations", Text: text}, nil
}

// schemeSweep is the spec set of Figures 5 and 6: every benchmark under
// every scheme, benchmark-major.
func schemeSweep(benches []*olden.Benchmark, size olden.Size) []Spec {
	schemes := core.Schemes()
	specs := make([]Spec, 0, len(benches)*len(schemes))
	for _, b := range benches {
		for _, scheme := range schemes {
			specs = append(specs, Spec{
				Bench:  b.Name,
				Params: olden.Params{Scheme: scheme, Size: size},
			})
		}
	}
	return specs
}

func fig5Data(cfg ExpConfig) ([]BarGroup, map[string]map[string]Result, error) {
	benches, err := cfg.benches()
	if err != nil {
		return nil, nil, err
	}
	schemes := core.Schemes()
	items := DecomposeBatch(schemeSweep(benches, cfg.Size), cfg.Workers)
	if err := firstDecompErr(items); err != nil {
		return nil, nil, err
	}
	results := map[string]map[string]Result{}
	var groups []BarGroup
	for bi, b := range benches {
		row := items[bi*len(schemes) : (bi+1)*len(schemes)]
		// Capture the baseline explicitly before building any bar, so
		// normalization never depends on scheme iteration order.
		var baseline uint64
		for si, scheme := range schemes {
			if scheme == core.SchemeNone {
				baseline = row[si].Decomp.Total
			}
		}
		g := BarGroup{Label: b.Name}
		results[b.Name] = map[string]Result{}
		for si, scheme := range schemes {
			d := row[si].Decomp
			results[b.Name][scheme.String()] = d.Full
			g.Bars = append(g.Bars, barFromDecomp(scheme.String(), d, baseline))
		}
		groups = append(groups, g)
	}
	return groups, results, nil
}

// fig5Summary computes the paper's headline averages over the
// benchmarks with appreciable memory components (the paper disregards
// bh, bisort, power, tsp and voronoi).
func fig5Summary(groups []BarGroup) string {
	excluded := map[string]bool{
		"bh": true, "bisort": true, "power": true, "tsp": true, "voronoi": true,
	}
	type agg struct {
		speedup float64
		memCut  float64
		n       int
	}
	sums := map[string]*agg{}
	for _, g := range groups {
		if excluded[g.Label] || len(g.Bars) == 0 {
			continue
		}
		base := g.Bars[0]
		for _, b := range g.Bars[1:] {
			if b.Norm <= 0 {
				continue
			}
			a := sums[b.Label]
			if a == nil {
				a = &agg{}
				sums[b.Label] = a
			}
			a.speedup += 1/b.Norm - 1
			if base.Memory > 0 {
				a.memCut += 1 - float64(b.Memory)/float64(base.Memory)
			}
			a.n++
		}
	}
	var keys []string
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("\naverages over memory-bound benchmarks (excl. bh, bisort, power, tsp, voronoi):\n")
	for _, k := range keys {
		a := sums[k]
		fmt.Fprintf(&sb, "  %-5s speedup %+5.0f%%   memory stall cut %5.0f%%\n",
			k, 100*a.speedup/float64(a.n), 100*a.memCut/float64(a.n))
	}
	return sb.String()
}

// --- Figure 6: bandwidth requirements ---------------------------------

// Fig6 reproduces the bandwidth comparison: bytes moved between the L1
// and L2 data caches per original-program dynamic instruction
// (instructions added by the prefetching transformations are not
// counted, as in the paper).
func Fig6(cfg ExpConfig) (Report, error) {
	benches, err := cfg.benches()
	if err != nil {
		return Report{}, err
	}
	schemes := core.Schemes()
	header := []string{"bench"}
	for _, s := range schemes {
		header = append(header, s.String())
	}
	runs := RunBatch(schemeSweep(benches, cfg.Size), cfg.Workers)
	if err := firstErr(runs); err != nil {
		return Report{}, err
	}
	bytesPerInst := func(r Result) float64 {
		if r.Insts.OrigInsts == 0 {
			return 0
		}
		return float64(r.Cache.L1L2Bytes) / float64(r.Insts.OrigInsts)
	}
	var rows [][]string
	ratios := map[string][]float64{}
	for bi, b := range benches {
		row := runs[bi*len(schemes) : (bi+1)*len(schemes)]
		var base float64
		for si, scheme := range schemes {
			if scheme == core.SchemeNone {
				base = bytesPerInst(row[si].Result)
			}
		}
		cells := []string{b.Name}
		for si, scheme := range schemes {
			bpi := bytesPerInst(row[si].Result)
			if base > 0 {
				ratios[scheme.String()] = append(ratios[scheme.String()], bpi/base)
			}
			cells = append(cells, fmt.Sprintf("%.2f", bpi))
		}
		rows = append(rows, cells)
	}
	text := renderTable("Figure 6: L1<->L2 bytes moved per original dynamic instruction",
		header, rows)
	text += "\naverage traffic increase over unoptimized:\n"
	for _, s := range schemes[1:] {
		rs := ratios[s.String()]
		sum := 0.0
		for _, v := range rs {
			sum += v
		}
		if len(rs) > 0 {
			text += fmt.Sprintf("  %-5s %+.0f%%\n", s.String(), 100*(sum/float64(len(rs))-1))
		}
	}
	return Report{ID: "fig6", Title: "Bandwidth requirements", Text: text}, nil
}

// --- Figure 7: tolerating longer latencies ----------------------------

// Fig7 reproduces the latency-scaling study on health: memory latencies
// of 70 and 280 cycles, jump-pointer intervals of 8 and 16.  Bars are
// normalized to the unoptimized run at the same latency.
func Fig7(cfg ExpConfig) (Report, error) {
	if err := cfg.selectsAny("fig7", "health"); err != nil {
		return Report{}, err
	}
	entries, specs := fig7Specs(cfg.Size)
	items := DecomposeBatch(specs, cfg.Workers)
	if err := firstDecompErr(items); err != nil {
		return Report{}, err
	}
	text := renderBars("Figure 7: health under longer memory latencies (normalized per latency)", barGroups(entries, items))
	return Report{ID: "fig7", Title: "Tolerating longer latencies", Text: text}, nil
}

// fig7Specs is Figure 7's spec set: per latency, health unoptimized,
// under DBP, and under each JPP implementation at intervals 8 and 16.
func fig7Specs(size olden.Size) ([]barEntry, []Spec) {
	var (
		entries []barEntry
		specs   []Spec
	)
	for _, lat := range []int{70, 280} {
		memP := defaultsWithLatency(lat)
		e := barEntry{group: fmt.Sprintf("lat=%d", lat), labels: []string{"none", "dbp"}}
		specs = append(specs, Spec{
			Bench:  "health",
			Params: olden.Params{Scheme: core.SchemeNone, Size: size},
			Mem:    &memP,
		}, Spec{
			Bench:  "health",
			Params: olden.Params{Scheme: core.SchemeDBP, Size: size},
			Mem:    &memP,
		})
		for _, scheme := range []core.Scheme{core.SchemeSoftware, core.SchemeCooperative, core.SchemeHardware} {
			for _, interval := range []int{8, 16} {
				e.labels = append(e.labels, fmt.Sprintf("%s/i%d", scheme, interval))
				specs = append(specs, Spec{
					Bench: "health",
					Params: olden.Params{
						Scheme: scheme, Size: size, Interval: interval,
					},
					Mem: &memP,
				})
			}
		}
		entries = append(entries, e)
	}
	return entries, specs
}

// --- Costs table -------------------------------------------------------

// Costs quantifies the direct and implicit costs of the software and
// cooperative implementations (paper §4.2-4.3): overhead instruction
// share, the a-priori slowdown of jump-pointer creation alone, and the
// data-footprint change in distinct cache blocks.
func Costs(cfg ExpConfig) (Report, error) {
	benches := costsBenches
	if len(cfg.Benches) > 0 {
		if _, err := cfg.benches(); err != nil {
			return Report{}, err
		}
		benches = cfg.Benches
	}
	runs := RunBatch(costsSpecs(benches, cfg.Size), cfg.Workers)
	if err := firstErr(runs); err != nil {
		return Report{}, err
	}
	var rows [][]string
	for bi, name := range benches {
		row := runs[bi*runsPerBench : (bi+1)*runsPerBench]
		base := row[runBase].Result
		sw := row[runSW].Result
		creation := row[runCreation].Result
		coop := row[runCoop].Result
		instOv := func(r Result) string {
			return fmt.Sprintf("%.0f%%", 100*float64(r.Insts.OvhdInsts)/float64(r.Insts.OrigInsts))
		}
		apriori := float64(creation.CPU.Cycles)/float64(base.CPU.Cycles) - 1
		blocks := float64(sw.Cache.DistinctL1Lines)/float64(base.Cache.DistinctL1Lines) - 1
		rows = append(rows, []string{
			name,
			instOv(sw),
			instOv(coop),
			fmt.Sprintf("%+.0f%%", 100*apriori),
			fmt.Sprintf("%+.0f%%", 100*blocks),
		})
	}
	text := renderTable("JPP costs: instruction overhead, creation-only slowdown, footprint",
		[]string{"bench", "sw-inst-ovh", "coop-inst-ovh", "a-priori-creation", "distinct-blocks"},
		rows)
	return Report{ID: "costs", Title: "JPP costs", Text: text}, nil
}

// costsBenches is the costs table's benchmark set when no filter is
// given: the four benchmarks whose JPP costs §4.2-4.3 discusses.
var costsBenches = []string{"health", "em3d", "treeadd", "mst"}

// The costs table's runs per benchmark, in costsSpecs order.
const (
	runBase = iota
	runSW
	runCreation
	runCoop
	runsPerBench
)

// costsSpecs is the costs table's spec set: per benchmark, the
// unoptimized, software, creation-only and cooperative runs.
func costsSpecs(benches []string, size olden.Size) []Spec {
	specs := make([]Spec, 0, len(benches)*runsPerBench)
	for _, name := range benches {
		specs = append(specs, Spec{
			Bench:  name,
			Params: olden.Params{Scheme: core.SchemeNone, Size: size},
		}, Spec{
			Bench:  name,
			Params: olden.Params{Scheme: core.SchemeSoftware, Size: size},
		}, Spec{
			Bench: name,
			Params: olden.Params{
				Scheme: core.SchemeSoftware, Size: size, CreationOnly: true,
			},
		}, Spec{
			Bench:  name,
			Params: olden.Params{Scheme: core.SchemeCooperative, Size: size},
		})
	}
	return specs
}

// --- Prefetcher shootout ----------------------------------------------

// Shootout compares every registered prefetch engine head to head on
// unmodified (scheme-none) kernels: speedup over no prefetching plus
// the coverage/accuracy/timeliness triple and issue volume from the
// stats layer.  It makes the paper's related-work comparison — jump
// pointers against dependence-based, stride and correlation
// prefetching — reproducible from the same harness (the registry built
// for it also backs `jppsim -engine`).
func Shootout(cfg ExpConfig) (Report, error) {
	benches, err := cfg.benches()
	if err != nil {
		return Report{}, err
	}
	engines := prefetch.Names()
	// Per benchmark: the engineless baseline first, then every engine,
	// flattened in render order.
	perBench := 1 + len(engines)
	specs := make([]Spec, 0, len(benches)*perBench)
	for _, b := range benches {
		specs = append(specs, Spec{
			Bench:  b.Name,
			Params: olden.Params{Scheme: core.SchemeNone, Size: cfg.Size},
		})
		for _, eng := range engines {
			specs = append(specs, Spec{
				Bench:  b.Name,
				Engine: eng,
				Params: olden.Params{Scheme: core.SchemeNone, Size: cfg.Size},
			})
		}
	}
	runs := RunBatch(specs, cfg.Workers)
	if err := firstErr(runs); err != nil {
		return Report{}, err
	}
	var rows [][]string
	for bi, b := range benches {
		row := runs[bi*perBench : (bi+1)*perBench]
		base := row[0].Result.CPU.Cycles
		for ei, eng := range engines {
			r := row[1+ei].Result
			speedup := 0.0
			if r.CPU.Cycles > 0 {
				speedup = float64(base)/float64(r.CPU.Cycles) - 1
			}
			p := r.Stats.Prefetch
			rows = append(rows, []string{
				b.Name,
				eng,
				fmt.Sprintf("%d", r.CPU.Cycles),
				fmt.Sprintf("%+.0f%%", 100*speedup),
				fmt.Sprintf("%d", p.Issued),
				fmt.Sprintf("%.2f", p.Derived.Coverage),
				fmt.Sprintf("%.2f", p.Derived.Accuracy),
				fmt.Sprintf("%.2f", p.Derived.Timeliness),
			})
		}
	}
	text := renderTable("Prefetcher shootout: registry engines on unmodified kernels",
		[]string{"bench", "engine", "cycles", "speedup", "issued", "cov", "acc", "timely"},
		rows)
	return Report{ID: "shootout", Title: "Prefetcher shootout", Text: text}, nil
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
