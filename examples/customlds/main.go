// Customlds: author a new pointer-chasing workload against the
// simulator's kernel-builder API and measure how hardware jump-pointer
// prefetching handles it with no code changes.
//
// The kernel-builder (internal/ir) is the module's workload extension
// point: each Asm call functionally executes against the simulated heap
// *and* emits a timed instruction, so hardware prefetch engines can
// chase the very pointers the workload builds.  This example builds a
// skip-list-free singly linked list of 12k nodes, scrambles it, and
// walks it ten times.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/olden"
)

// Node layout: value(0) next(4) = 8 -> class 8 (no padding!), so we
// declare 12 bytes to give the hardware a jump-pointer slot at 12.
const (
	nValue = 0
	nNext  = 4
)

const (
	sBuild = ir.FirstUserSite + iota*8
	sWalk
)

const (
	nodes  = 12000
	passes = 10
)

func kernel(a *ir.Asm) {
	// Build the list, then scramble the next-pointers so consecutive
	// nodes sit on unrelated cache lines (a churned steady state).
	addrs := make([]ir.Val, nodes)
	for i := range addrs {
		addrs[i] = a.Malloc(12)
		a.Store(sBuild, addrs[i], nValue, ir.Imm(uint32(i)))
	}
	perm := make([]int, nodes)
	for i := range perm {
		perm[i] = i
	}
	seed := uint32(12345)
	for i := nodes - 1; i > 0; i-- {
		seed = seed*1664525 + 1013904223
		j := int(seed) % (i + 1)
		if j < 0 {
			j = -j
		}
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i+1 < nodes; i++ {
		a.Store(sBuild+1, addrs[perm[i]], nNext, addrs[perm[i+1]])
	}

	// Walk the scrambled list: the classic serialized pointer chase.
	for p := 0; p < passes; p++ {
		n := addrs[perm[0]]
		for i := 0; i < nodes; i++ {
			v := a.Load(sWalk, n, nValue, ir.FLDS)
			a.Alu(sWalk+1, v.U32()+1, v, ir.Val{})
			nx := a.Load(sWalk+2, n, nNext, ir.FLDS)
			a.Branch(sWalk+3, i+1 < nodes, sWalk, nx, ir.Val{})
			if nx.IsNil() {
				break
			}
			n = nx
		}
	}
}

func run(scheme core.Scheme) uint64 {
	// Spec.Kernel runs the workload through the same machine every
	// registered benchmark gets; the scheme picks the prefetch engine.
	res, err := harness.Run(harness.Spec{
		Bench:  "customlds",
		Params: olden.Params{Scheme: scheme},
		Kernel: kernel,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res.CPU.Cycles
}

func main() {
	base := run(core.SchemeNone)
	hw := run(core.SchemeHardware)
	fmt.Printf("custom scrambled-list walk (%d nodes x %d passes)\n", nodes, passes)
	fmt.Printf("  no prefetching:   %d cycles\n", base)
	fmt.Printf("  hardware JPP:     %d cycles (%.0f%% speedup, zero code changes)\n",
		hw, 100*(float64(base)/float64(hw)-1))
	if hw >= base {
		log.Fatal("expected hardware JPP to speed up a scrambled list walk")
	}
}
