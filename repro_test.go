package repro

import (
	"strings"
	"testing"
)

func TestSimulateBasic(t *testing.T) {
	res, err := Simulate(Config{Bench: "health", Scheme: SchemeNone, Size: SizeTest})
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Cycles == 0 {
		t.Fatal("empty run")
	}
}

func TestSimulateUnknownBench(t *testing.T) {
	if _, err := Simulate(Config{Bench: "nope"}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestSplit(t *testing.T) {
	d, err := Split(Config{Bench: "treeadd", Scheme: SchemeNone, Size: SizeTest})
	if err != nil {
		t.Fatal(err)
	}
	if d.Compute == 0 || d.Compute > d.Total {
		t.Fatalf("bad split: %+v", d)
	}
}

func TestMemLatencyOverride(t *testing.T) {
	slow, err := Simulate(Config{Bench: "treeadd", Scheme: SchemeNone, Size: SizeTest, MemLatency: 500})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Simulate(Config{Bench: "treeadd", Scheme: SchemeNone, Size: SizeTest, MemLatency: 10})
	if err != nil {
		t.Fatal(err)
	}
	if slow.CPU.Cycles <= fast.CPU.Cycles {
		t.Fatalf("latency override has no effect: %d vs %d", slow.CPU.Cycles, fast.CPU.Cycles)
	}
}

func TestBenchmarksListing(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 19 { // 10 Olden + 2 section-6 extensions + 7 kernels
		t.Fatalf("%d benchmarks", len(bs))
	}
	names := map[string]bool{}
	for _, b := range bs {
		names[b.Name] = true
	}
	for _, want := range []string{"health", "em3d", "mst", "treeadd",
		"hashchurn", "skiplist", "bptree", "lru", "multilist", "quicklist", "txmix"} {
		if !names[want] {
			t.Fatalf("missing %s", want)
		}
	}
}

func TestEnginesListing(t *testing.T) {
	have := map[string]bool{}
	for _, n := range Engines() {
		have[n] = true
	}
	for _, want := range []string{"dbp", "hw", "stride", "markov", "hybrid"} {
		if !have[want] {
			t.Errorf("Engines() missing %q: %v", want, Engines())
		}
	}
}

func TestEngineOverride(t *testing.T) {
	res, err := Simulate(Config{Bench: "health", Scheme: SchemeNone, Engine: "stride", Size: SizeTest})
	if err != nil {
		t.Fatal(err)
	}
	if res.EngineName != "stride" {
		t.Fatalf("EngineName = %q, want stride", res.EngineName)
	}
	if _, err := Simulate(Config{Bench: "health", Engine: "nonesuch", Size: SizeTest}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestExperimentIDs(t *testing.T) {
	ids := ExperimentIDs()
	want := []string{"table1", "table2", "fig4", "fig5", "fig6", "fig7", "costs", "shootout"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
}

func TestReproduceTable2(t *testing.T) {
	rep, err := Reproduce("table2", ExpConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"64KB", "512KB", "70 cycles", "JQT"} {
		if !strings.Contains(rep.Text, want) {
			t.Errorf("table2 missing %q", want)
		}
	}
}

func TestReproduceUnknown(t *testing.T) {
	if _, err := Reproduce("fig99", ExpConfig{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestIdiomOverride(t *testing.T) {
	for _, idiom := range []Idiom{IdiomQueue, IdiomChain, IdiomRoot, IdiomFull} {
		res, err := Simulate(Config{
			Bench: "health", Scheme: SchemeSoftware, Idiom: idiom, Size: SizeTest,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Insts.OvhdInsts == 0 {
			t.Errorf("idiom %v emitted no prefetch code", idiom)
		}
	}
}
