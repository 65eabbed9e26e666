// Package kernels is the repo's second first-class workload family:
// modern pointer-intensive kernels beyond the Olden suite.  The paper's
// evaluation stops at Olden, but its claims — jump pointers win
// wherever the traversal order is predictable, and degrade on
// "volatile" structures that mutate under the walk — are exactly what
// today's pointer-chasing workloads stress.  Each kernel here emits
// through the same ir.Asm path the Olden kernels use and supports every
// scheme, idiom, interval and size knob, so the whole experiment and
// validation stack (harness, jppsim/jppchar/jpptrace/jppreport, the
// differential oracle) runs them unchanged.
//
// The family (registry names in parentheses):
//
//   - hash-table chains with resize churn (hashchurn)
//   - a skip list with probabilistic towers (skiplist)
//   - an insert-built B+tree with leaf-chain scans (bptree)
//   - an LRU cache — the paper's volatile-LDS worst case, jump
//     pointers invalidated by every promotion (lru)
//   - multi-list lockstep walks software-pipelined across 1-8
//     parallel chases (multilist)
//   - a QuickList-style list whose skip pointers are maintained by the
//     data structure itself, so prefetching needs no creation code
//     (quicklist)
//   - a zipf-skewed transactional read/write mix over record chains
//     (txmix)
//
// Kernels register in a name->factory registry mirroring
// internal/prefetch; harness.BenchByName merges this registry with the
// Olden one, so a name resolves identically everywhere.
package kernels

import (
	"sort"

	"repro/internal/ir"
	"repro/internal/olden"
)

// Benchmark and Params are the same descriptor types the Olden family
// uses, so the harness and validation stack treat both families
// uniformly.
type (
	Benchmark = olden.Benchmark
	Params    = olden.Params
	Size      = olden.Size
)

// Size aliases, re-exported so kernel size tables read naturally.
const (
	SizeDefault = olden.SizeDefault
	SizeTest    = olden.SizeTest
	SizeSmall   = olden.SizeSmall
	SizeFull    = olden.SizeFull
	SizeLarge   = olden.SizeLarge
)

var registry = map[string]*Benchmark{}

// Register adds a kernel to the family registry.  It panics on a
// duplicate name or on a name that shadows an Olden benchmark: the
// merged lookup (harness.BenchByName) must stay unambiguous.
func Register(b *Benchmark) {
	if _, dup := registry[b.Name]; dup {
		panic("kernels: duplicate kernel " + b.Name)
	}
	if _, clash := olden.ByName(b.Name); clash {
		panic("kernels: kernel " + b.Name + " shadows an olden benchmark")
	}
	registry[b.Name] = b
}

// Names returns all kernel names in alphabetical order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByName looks up a kernel.
func ByName(name string) (*Benchmark, bool) {
	b, ok := registry[name]
	return b, ok
}

// All returns every kernel alphabetically.
func All() []*Benchmark {
	names := Names()
	out := make([]*Benchmark, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// zipf draws zipf(s~1)-skewed ranks in [0, n) by inverting a
// precomputed harmonic CDF with a uniform draw.  Integer-only and
// deterministic: the table is scaled to 1<<16.
type zipf struct {
	r   *olden.RNG
	cdf []uint32
}

func newZipf(r *olden.RNG, n int) *zipf {
	cdf := make([]uint32, n)
	var total float64
	for i := 1; i <= n; i++ {
		total += 1 / float64(i)
	}
	var acc float64
	for i := 0; i < n; i++ {
		acc += 1 / float64(i+1)
		cdf[i] = uint32(acc / total * 65536)
	}
	cdf[n-1] = 65536
	return &zipf{r: r, cdf: cdf}
}

// next returns a rank in [0, len(cdf)); rank 0 is the hottest.
func (z *zipf) next() int {
	u := z.r.Next() & 0xFFFF
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if uint32(u) < z.cdf[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Global-data layout shared by the kernels in this package: the
// SWJumpQueue ring lives at offset 0 (core.MaxInterval words) and
// kernel accumulators start at accBase, clear of the largest ring.
const accBase = 0x200

// hashMix is the emitted hash function shared by the hash-indexed
// kernels: a multiplicative hash with one xor-shift fold, occupying
// sites site..site+2.  The Go-side return value mirrors the emitted
// Alu chain exactly so directory offsets are known at emission time.
func hashMix(a *ir.Asm, site int, key ir.Val) ir.Val {
	h1 := a.Alu(site, key.U32()*2654435761, key, ir.Val{})
	h2 := a.Alu(site+1, h1.U32()>>13, h1, ir.Val{})
	return a.Alu(site+2, h1.U32()^h2.U32(), h1, h2)
}

// Common queue-idiom emission: at the top of a serialized visit, chase
// the jump pointer installed `interval` visits ago.  Cooperative
// prefetches hand the chain to hardware (ir.FJumpChase); software
// prefetches load the pointer and issue a plain prefetch under
// overhead accounting.
func queuePrefetch(a *ir.Asm, site int, cur ir.Val, jumpOff uint32, isCoop bool) {
	if isCoop {
		a.Prefetch(site, cur, jumpOff, ir.FJumpChase)
		return
	}
	a.Overhead(func() {
		j := a.Load(site, cur, jumpOff, 0)
		a.Prefetch(site+1, j, 0, 0)
	})
}
