package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/olden"
)

// TestMain lets the test binary serve as its own set-up probe, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if arg := os.Getenv(probeEnv); arg != "" {
		if err := setupProbe(arg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type docMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkDoc is the part of BENCHMARK.json this command must honour.
type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []docMetric `json:"end_to_end"`
	PerLayer []docMetric `json:"per_layer"`
}

func readDoc(t *testing.T) benchmarkDoc {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBenchmarkDocMatches checks that BENCHMARK.json declares exactly
// the workloads and metrics this command runs and emits.
func TestBenchmarkDocMatches(t *testing.T) {
	doc := readDoc(t)
	var want []string
	for _, w := range workloads(0) {
		want = append(want, w.name)
	}
	var got []string
	for _, w := range doc.Workloads {
		got = append(got, w.Name)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", got, want)
	}
	for _, c := range []struct {
		section string
		doc     []docMetric
		defs    []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		var defs []docMetric
		for _, d := range c.defs {
			defs = append(defs, docMetric{d.name, d.unit, d.better, d.bound})
		}
		if fmt.Sprint(c.doc) != fmt.Sprint(defs) {
			t.Errorf("BENCHMARK.json %s\n  %v\ncommand emits\n  %v", c.section, c.doc, defs)
		}
	}
}

// resultLine is the JSON line the command prints per workload.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestSmoke runs every workload at the test size for one pass, timed
// and traced.  Every declared metric must be emitted with its unit, no
// run may fail, and nothing under the repository may be written.
func TestSmoke(t *testing.T) {
	doc := readDoc(t)
	before := repoFiles(t)
	out := t.TempDir()
	for _, mode := range []struct {
		trace   string
		metrics []docMetric
	}{{"0", doc.EndToEnd}, {"1", doc.PerLayer}} {
		var stdout, stderr bytes.Buffer
		args := []string{"-size", "test", "-seconds", "0", "-trace", mode.trace, "-out", out}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-trace %s exited %d: %s", mode.trace, code, stderr.String())
		}
		if stderr.Len() > 0 {
			t.Errorf("-trace %s wrote to stderr: %s", mode.trace, stderr.String())
		}
		var results []resultLine
		sc := bufio.NewScanner(&stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "{") {
				var r resultLine
				if err := json.Unmarshal([]byte(line), &r); err != nil {
					t.Fatal(err)
				}
				results = append(results, r)
			} else if fields := strings.Fields(line); len(fields) != 4 {
				t.Errorf("-trace %s: line %q is not \"workload metric value unit\"", mode.trace, line)
			} else if fields[1] == "failed_pct" && fields[2] != "0" {
				t.Errorf("-trace %s: %s", mode.trace, line)
			}
		}
		if len(results) != len(doc.Workloads) {
			t.Fatalf("-trace %s: %d result lines for %d workloads", mode.trace, len(results), len(doc.Workloads))
		}
		for i, r := range results {
			w := doc.Workloads[i].Name
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("-trace %s %s: correct=%v attempted=%d failed=%d", mode.trace, w, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(mode.metrics) {
				t.Errorf("-trace %s %s: %d metrics, want %d", mode.trace, w, len(r.Metrics), len(mode.metrics))
			}
			for _, m := range mode.metrics {
				if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("-trace %s %s: metric %s = %+v, want unit %s", mode.trace, w, m.Name, got, m.Unit)
				}
			}
		}
	}
	if after := repoFiles(t); !maps.Equal(before, after) {
		t.Error("the benchmark wrote under the repository")
	}
}

// repoFiles maps every file of the repository outside .git to its size
// and modification time.
func repoFiles(t *testing.T) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(filepath.Join("..", ".."), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files[path] = fmt.Sprint(info.Size(), info.ModTime().UnixNano())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestSameRunDetectsDivergence pins that the traced pass's comparison
// with harness.Run is not vacuous: a machine assembled for the same spec
// agrees on every counter, one assembled for another spec does not.
func TestSameRunDetectsDivergence(t *testing.T) {
	spec := harness.Spec{Bench: "health", Params: olden.Params{Scheme: core.SchemeCooperative, Size: olden.SizeTest}}
	res, err := harness.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Params.Scheme = core.SchemeHardware
	for _, c := range []struct {
		spec harness.Spec
		same bool
	}{{spec, true}, {other, false}} {
		m, err := newMachine(c.spec, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = sameRun(res, m, m.core.Run(m.gen))
		if (err == nil) != c.same {
			t.Errorf("%s against %s: sameRun = %v", specLabel(c.spec), specLabel(spec), err)
		}
	}
}
