package kernels_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/olden"
)

var update = flag.Bool("update", false, "rewrite golden stats files")

// TestKernelGoldens pins a committed statistics snapshot for every
// registered kernel in all three primary sizes under the
// representative cooperative scheme.  Any change to a kernel's emitted
// stream, the timing model, or the stats schema shows up as a golden
// diff; regenerate deliberately with -update.
func TestKernelGoldens(t *testing.T) {
	sizes := []olden.Size{olden.SizeTest, olden.SizeSmall, olden.SizeFull}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, b := range kernels.All() {
		for _, size := range sizes {
			name, size := b.Name, size
			t.Run(name+"/"+size.String(), func(t *testing.T) {
				t.Parallel()
				snap := runSnap(t, name, core.SchemeCooperative, "", size, false, false)
				data, err := json.MarshalIndent(snap, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				data = append(data, '\n')
				golden := filepath.Join("testdata",
					"stats_"+name+"_"+size.String()+".json")
				if *update {
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(golden, data, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("missing golden (run `go test ./internal/kernels -run TestKernelGoldens -update`): %v", err)
				}
				if string(want) != string(data) {
					t.Errorf("stats snapshot differs from %s; regenerate with -update if intended", golden)
				}
			})
		}
	}
}
