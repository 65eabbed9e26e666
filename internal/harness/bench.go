package harness

import (
	// The kernels family registers into olden's workload registry; the
	// blank import makes every workload resolvable wherever the harness
	// is linked in.
	_ "repro/internal/kernels"
	"repro/internal/olden"
)

// BenchByName resolves a workload name.  It forwards to olden.ByName
// and stays because bench/jppbench calls it.
func BenchByName(name string) (*olden.Benchmark, bool) { return olden.ByName(name) }
