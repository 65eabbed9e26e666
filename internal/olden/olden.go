// Package olden re-implements the Olden pointer-intensive benchmark
// suite as micro-IR kernels for the timing simulator.
//
// Each benchmark reproduces the data structures and traversal idioms
// that drive the paper's results — backbone-only versus
// backbone-and-ribs structures, traversal counts, and structural
// volatility — rather than the exact source of the originals.  Every
// benchmark supports the paper's prefetching schemes: the software and
// cooperative schemes change the emitted code (jump-pointer creation
// and prefetch instructions per the selected idiom), while the DBP and
// hardware schemes leave the code untouched.
package olden

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/ir"
)

// Size selects input scaling.  The paper's inputs are scaled down so a
// cycle-level simulation finishes in seconds; the ratios between
// structure sizes and the cache hierarchy are preserved (working sets
// several times the 512KB L2 for the memory-bound programs).
type Size int

// Input sizes.
const (
	// SizeDefault resolves to SizeFull (kernels treat any value other
	// than the explicit test/small sizes as the full input), so the
	// zero value of configuration structs runs the real workload.
	SizeDefault Size = iota
	// SizeTest is for unit tests: a few thousand instructions.
	SizeTest
	// SizeSmall is for quick experiments.
	SizeSmall
	// SizeFull drives the reported tables and figures.
	SizeFull
	// SizeLarge scales the structures 2-4x past SizeFull, pushing every
	// memory-bound working set well beyond the L2.  It exists to stress
	// the simulator at paper-scale inputs and became practical once the
	// event-driven core made runs at this scale affordable.
	SizeLarge
)

func (s Size) String() string {
	switch s {
	case SizeDefault, SizeFull:
		return "full"
	case SizeTest:
		return "test"
	case SizeSmall:
		return "small"
	case SizeLarge:
		return "large"
	}
	return fmt.Sprintf("size(%d)", int(s))
}

// ParseSize inverts String for the four explicit sizes.  SizeDefault
// has no spelling of its own: it prints, and runs, as "full".
func ParseSize(s string) (Size, error) {
	switch s {
	case "test":
		return SizeTest, nil
	case "small":
		return SizeSmall, nil
	case "full":
		return SizeFull, nil
	case "large":
		return SizeLarge, nil
	}
	return 0, fmt.Errorf("unknown size %q", s)
}

// Params configures one kernel instantiation.
type Params struct {
	Scheme core.Scheme
	// Idiom selects the software transformation for SchemeSoftware and
	// SchemeCooperative; ignored otherwise.  core.IdiomNone picks the
	// benchmark's representative idiom.
	Idiom core.Idiom
	// Interval is the jump-pointer distance (0 = core.DefaultInterval).
	Interval int
	Size     Size
	// CreationOnly emits jump-pointer creation code but no prefetches,
	// isolating the "a priori" creation slowdown the paper quantifies
	// in section 4.2.
	CreationOnly bool
}

// PrefetchOn reports whether idiom prefetch code should be emitted.
func (p Params) PrefetchOn() bool { return !p.CreationOnly }

// EffectiveInterval is the jump-pointer distance in force: Interval, or
// core.DefaultInterval when it is unset.
func (p Params) EffectiveInterval() int {
	if p.Interval <= 0 {
		return core.DefaultInterval
	}
	return p.Interval
}

// SWIdiom resolves the idiom the kernel must emit code for (def when
// Idiom is unset), or core.IdiomNone when the scheme needs no software
// transformation.
func (p Params) SWIdiom(def core.Idiom) core.Idiom {
	if !p.Scheme.UsesSoftwareIdiom() {
		return core.IdiomNone
	}
	if p.Idiom == core.IdiomNone {
		return def
	}
	return p.Idiom
}

// Coop reports whether chained prefetching is done by hardware, so the
// kernel emits streamlined jump-pointer prefetches (ir.FJumpChase) and
// omits software chained prefetches.
func (p Params) Coop() bool { return p.Scheme == core.SchemeCooperative }

// Benchmark describes one suite member.
type Benchmark struct {
	Name        string
	Description string
	// Structures and Behavior carry the Table 1 characterization text.
	Structures string
	Behavior   string
	// Idioms lists the applicable idioms (Table 1's last column), the
	// first being the representative choice used in Figure 5.
	Idioms []core.Idiom
	// Traversals is the approximate number of passes over the main
	// structure (drives the hardware-vs-software discussion in §4.2).
	Traversals int
	// Extension marks workloads beyond the paper's Olden suite (the
	// §6 future-work generalizations).  They are excluded from the
	// paper-artifact experiments but available everywhere else.
	Extension bool
	// Kernel builds the workload for the given parameters.
	Kernel func(p Params) func(*ir.Asm)
}

var registry = map[string]*Benchmark{}

func register(b *Benchmark) {
	if _, dup := registry[b.Name]; dup {
		panic("olden: duplicate benchmark " + b.Name)
	}
	registry[b.Name] = b
}

// Names returns all benchmark names in alphabetical order (the paper's
// presentation order).
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByName looks up a benchmark.
func ByName(name string) (*Benchmark, bool) {
	b, ok := registry[name]
	return b, ok
}

// All returns every benchmark (suite + extensions) alphabetically.
func All() []*Benchmark {
	names := Names()
	out := make([]*Benchmark, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// Suite returns the paper's ten Olden benchmarks, the set its
// evaluation artifacts are built from.
func Suite() []*Benchmark {
	var out []*Benchmark
	for _, b := range All() {
		if !b.Extension {
			out = append(out, b)
		}
	}
	return out
}

// RNG is a small deterministic xorshift generator so workloads are
// reproducible without pulling in math/rand state.  Both workload
// families (olden and kernels) draw from it.
type RNG uint64

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG {
	r := RNG(seed*2685821657736338717 + 1)
	return &r
}

// Next returns the next 32-bit draw.
func (r *RNG) Next() uint32 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = RNG(x)
	return uint32(x >> 32)
}

// Intn returns a value in [0, n).
func (r *RNG) Intn(n int) int {
	return int(r.Next() % uint32(n))
}
