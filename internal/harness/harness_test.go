package harness

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/olden"
	"repro/internal/prefetch"
)

func TestRunAllBenchmarksAllSchemes(t *testing.T) {
	for _, b := range olden.All() {
		for _, scheme := range core.Schemes() {
			res, err := Run(Spec{
				Bench:  b.Name,
				Params: olden.Params{Scheme: scheme, Size: olden.SizeTest},
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", b.Name, scheme, err)
			}
			if res.CPU.Insts == 0 || res.CPU.Cycles == 0 {
				t.Errorf("%s/%v: empty run", b.Name, scheme)
			}
			if res.CPU.Truncated {
				t.Errorf("%s/%v: truncated", b.Name, scheme)
			}
			if prefetch.DefaultFor(scheme) != "" && res.Engine == nil {
				t.Errorf("%s/%v: missing engine stats", b.Name, scheme)
			}
			if scheme == core.SchemeHardware && res.HW == nil {
				t.Errorf("%s: missing hardware JPP stats", b.Name)
			}
		}
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	if _, err := Run(Spec{Bench: "nope"}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestExperimentsRejectUnknownBenches: every driver that filters
// benchmarks names each unknown one instead of rendering an empty
// report, and fails before running any simulation.
func TestExperimentsRejectUnknownBenches(t *testing.T) {
	cfg := ExpConfig{Size: olden.SizeTest, Benches: []string{"helth", "health", "tree-add"}}
	for _, id := range []string{"table1", "fig4", "fig5", "fig6", "fig7", "costs", "shootout"} {
		fn, _ := ExperimentByID(id)
		rep, err := fn(cfg)
		if err == nil {
			t.Errorf("%s: unknown benchmarks accepted, rendered:\n%s", id, rep.Text)
			continue
		}
		for _, name := range []string{`"helth"`, `"tree-add"`} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%s: error %q does not name %s", id, err, name)
			}
		}
		if strings.Contains(err.Error(), `"health"`) {
			t.Errorf("%s: error %q names a known benchmark", id, err)
		}
	}
}

// TestFixedSetExperimentsRejectDisjointFilter: Figures 4 and 7 cover a
// fixed set of benchmarks.  A filter that selects none of them is an
// error naming the covered set, not an empty chart (fig4) or a chart of
// the unfiltered set (fig7).
func TestFixedSetExperimentsRejectDisjointFilter(t *testing.T) {
	cfg := ExpConfig{Size: olden.SizeTest, Benches: []string{"bh"}}
	for id, covered := range map[string][]string{
		"fig4": {"em3d", "health", "mst", "treeadd"},
		"fig7": {"health"},
	} {
		fn, _ := ExperimentByID(id)
		rep, err := fn(cfg)
		if err == nil {
			t.Errorf("%s: a filter selecting none of its benchmarks rendered:\n%s", id, rep.Text)
			continue
		}
		for _, name := range covered {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%s: error %q does not name covered benchmark %s", id, err, name)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	spec := Spec{
		Bench:  "health",
		Params: olden.Params{Scheme: core.SchemeCooperative, Size: olden.SizeTest},
	}
	r1, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CPU.Cycles != r2.CPU.Cycles || r1.Cache.L1DMisses != r2.Cache.L1DMisses {
		t.Fatalf("nondeterministic: %d vs %d cycles", r1.CPU.Cycles, r2.CPU.Cycles)
	}
}

func TestDecomposeInvariants(t *testing.T) {
	for _, b := range []string{"health", "treeadd", "power"} {
		d, err := Decompose(Spec{
			Bench:  b,
			Params: olden.Params{Scheme: core.SchemeNone, Size: olden.SizeTest},
		})
		if err != nil {
			t.Fatal(err)
		}
		if d.Compute == 0 || d.Compute > d.Total {
			t.Errorf("%s: compute=%d total=%d", b, d.Compute, d.Total)
		}
		if d.Memory()+d.Compute != d.Total {
			t.Errorf("%s: decomposition does not sum", b)
		}
	}
}

func TestExperimentsRunAtTestSize(t *testing.T) {
	cfg := ExpConfig{Size: olden.SizeTest, Benches: []string{"health", "treeadd"}}
	for _, e := range Experiments() {
		rep, err := e.Fn(cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if rep.Text == "" || rep.ID != e.ID {
			t.Errorf("%s: empty or mislabelled report", e.ID)
		}
	}
}

func TestExperimentByID(t *testing.T) {
	if _, ok := ExperimentByID("fig5"); !ok {
		t.Fatal("fig5 missing")
	}
	if _, ok := ExperimentByID("fig9"); ok {
		t.Fatal("phantom experiment")
	}
}

func TestRenderBars(t *testing.T) {
	out := renderBars("Title", []BarGroup{{
		Label: "bench",
		Bars: []Bar{
			{Label: "none", Compute: 30, Memory: 70, Norm: 1.0},
			{Label: "coop", Compute: 30, Memory: 20, Norm: 0.5},
		},
	}})
	for _, want := range []string{"Title", "bench", "none", "coop", "1.00", "0.50", "mem 70%"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered chart missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTable(t *testing.T) {
	out := renderTable("T", []string{"a", "bb"}, [][]string{{"x", "y"}, {"long", "z"}})
	if !strings.Contains(out, "long") || !strings.Contains(out, "bb") {
		t.Errorf("table rendering broken:\n%s", out)
	}
}

func TestBarAccessors(t *testing.T) {
	b := Bar{Compute: 25, Memory: 75, Norm: 1}
	if b.Total() != 100 || b.MemShare() != 0.75 {
		t.Fatalf("bar accessors: total=%d share=%f", b.Total(), b.MemShare())
	}
	if (Bar{}).MemShare() != 0 {
		t.Fatal("zero bar MemShare must be 0")
	}
}
