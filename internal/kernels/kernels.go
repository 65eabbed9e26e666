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
// Each kernel registers into olden's one workload registry as a member
// of olden.FamilyKernels; olden.All lists the family after the Olden
// workloads.  The names resolve in any program that links this package
// in, which internal/harness does for every tool built on it.
package kernels

import (
	"repro/internal/ir"
	"repro/internal/olden"
)

// All returns the kernels family in olden.All order.  It stays because
// bench/jppbench calls it; everything else lists workloads through
// olden.All.
func All() []*olden.Benchmark {
	var out []*olden.Benchmark
	for _, b := range olden.All() {
		if b.Family == olden.FamilyKernels {
			out = append(out, b)
		}
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
