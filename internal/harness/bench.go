package harness

import (
	"repro/internal/kernels"
	"repro/internal/olden"
)

// The harness resolves workload names across both first-class kernel
// families — the Olden suite (internal/olden) and the modern
// pointer-intensive family (internal/kernels) — so jppsim, jppchar,
// jpptrace, jppreport and the validation drivers all see one flat
// namespace.
// Registration enforces that the namespaces never overlap.

// BenchByName resolves a workload name from either family.
func BenchByName(name string) (*olden.Benchmark, bool) {
	if b, ok := olden.ByName(name); ok {
		return b, true
	}
	return kernels.ByName(name)
}

// AllBenches returns every registered workload: the Olden family first,
// then the kernels family, each alphabetical.
func AllBenches() []*olden.Benchmark {
	return append(olden.All(), kernels.All()...)
}

// BenchNames returns the names of every registered workload in
// AllBenches order.
func BenchNames() []string {
	return append(olden.Names(), kernels.Names()...)
}
