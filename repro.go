// Package repro reproduces "Effective Jump-Pointer Prefetching for
// Linked Data Structures" (Amir Roth and Gurindar S. Sohi, ISCA 1999)
// as a cycle-level simulation study in pure Go.
//
// The package is a facade over the simulator stack:
//
//   - a 4-wide out-of-order core and the paper's Table 2 memory
//     hierarchy (internal/cpu, internal/cache);
//   - dependence-based prefetching, the paper's hardware baseline
//     (internal/dbp);
//   - the jump-pointer prefetching framework — four idioms x three
//     implementations — that is the paper's contribution
//     (internal/core);
//   - ten Olden-style pointer-intensive workloads (internal/olden);
//   - experiment drivers that regenerate every table and figure of the
//     paper's evaluation (internal/harness).
//
// # Quick start
//
//	res, err := repro.Simulate(repro.Config{
//		Bench:  "health",
//		Scheme: repro.SchemeCooperative,
//	})
//	if err != nil { ... }
//	fmt.Printf("%d cycles, IPC %.2f\n", res.Cycles(), res.CPU.IPC())
//
// To regenerate a paper artifact:
//
//	rep, err := repro.Reproduce("fig5", repro.ExpConfig{})
//	fmt.Println(rep.Text)
package repro

import (
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dbp"
	"repro/internal/harness"
	"repro/internal/olden"
	"repro/internal/prefetch"
	"repro/internal/validate"
)

// Scheme selects a prefetching implementation (paper section 3).
type Scheme = core.Scheme

// Prefetching schemes.
const (
	// SchemeNone is the unoptimized baseline.
	SchemeNone = core.SchemeNone
	// SchemeDBP is dependence-based prefetching (the hardware baseline).
	SchemeDBP = core.SchemeDBP
	// SchemeSoftware is software-only jump-pointer prefetching.
	SchemeSoftware = core.SchemeSoftware
	// SchemeCooperative does jump-pointer prefetching in software and
	// chained prefetching in hardware.
	SchemeCooperative = core.SchemeCooperative
	// SchemeHardware is hardware-only jump-pointer prefetching.
	SchemeHardware = core.SchemeHardware
)

// Idiom selects a jump-pointer prefetching idiom (paper section 2.2).
type Idiom = core.Idiom

// Prefetching idioms.
const (
	// IdiomDefault picks the benchmark's representative idiom.
	IdiomDefault = core.IdiomNone
	// IdiomQueue prefetches a backbone through queue-method pointers.
	IdiomQueue = core.IdiomQueue
	// IdiomFull uses jump-pointer prefetches for backbone and ribs.
	IdiomFull = core.IdiomFull
	// IdiomChain reaches ribs with chained prefetches.
	IdiomChain = core.IdiomChain
	// IdiomRoot chases whole small structures from a root pointer.
	IdiomRoot = core.IdiomRoot
)

// Size selects workload scaling.
type Size = olden.Size

// Workload sizes.
const (
	// SizeTest runs in microseconds (unit tests).
	SizeTest = olden.SizeTest
	// SizeSmall runs in milliseconds.
	SizeSmall = olden.SizeSmall
	// SizeFull drives the reported tables and figures.
	SizeFull = olden.SizeFull
	// SizeLarge stresses paper-scale inputs (structures 2-4x SizeFull).
	SizeLarge = olden.SizeLarge
)

// Config describes one simulation.
type Config struct {
	// Bench names a registered workload, Olden or kernels family; see
	// Benchmarks().
	Bench string
	// Scheme is the prefetching implementation to apply.
	Scheme Scheme
	// Idiom overrides the benchmark's representative idiom for the
	// software and cooperative schemes.
	Idiom Idiom
	// Engine names a registered prefetch engine (see Engines) to attach
	// instead of the scheme's default, so any workload can run under any
	// prefetcher ("" keeps the scheme's engine).
	Engine string
	// Interval is the jump-pointer distance in nodes (0 = 8, Table 2).
	Interval int
	// Size scales the workload (default SizeFull).
	Size Size
	// MemLatency overrides the 70-cycle main memory latency, also that
	// of Machine (whose struct is copied, never modified).
	MemLatency int

	// Sampling, when non-nil, switches the run to SMARTS-style sampled
	// simulation: detailed warmup + measured intervals with functional
	// fast-forward in between.  Architectural results are bit-identical
	// to a full run; cycle counts are extrapolated estimates carrying
	// error bars (Result.Stats.Sampling).  Zero fields take defaults
	// (cpu.DefaultSampling).
	Sampling *cpu.SamplingConfig

	// Machine, when non-nil, replaces the whole Table 2 memory system.
	Machine *cache.Params
	// Core, when non-nil, replaces the Table 2 out-of-order core.
	Core *cpu.Config
	// DBP, when non-nil, replaces the Table 2 prefetch engine sizing.
	DBP *dbp.Config
	// HW, when non-nil, replaces the Table 2 JQT/JPR configuration.
	HW *core.HWConfig
}

// Result is a completed simulation: cycle counts, cache and predictor
// statistics, instruction mix, and (for hardware schemes) prefetch
// engine counters.
type Result = harness.Result

// Decomposition splits execution time into compute and memory-stall
// portions using the paper's two-run method.
type Decomposition = harness.Decomposition

func (c Config) spec() harness.Spec {
	spec := harness.Spec{
		Bench:  c.Bench,
		Engine: c.Engine,
		Params: olden.Params{
			Scheme:   c.Scheme,
			Idiom:    c.Idiom,
			Interval: c.Interval,
			Size:     c.Size,
		},
		Mem:      c.Machine,
		CPU:      c.Core,
		DBP:      c.DBP,
		HW:       c.HW,
		Sampling: c.Sampling,
	}
	if c.MemLatency > 0 {
		m := cache.Defaults()
		if c.Machine != nil {
			m = *c.Machine
		}
		m.MemLatency = c.MemLatency
		spec.Mem = &m
	}
	return spec
}

// Simulate runs one configuration to completion.
func Simulate(c Config) (Result, error) {
	return harness.Run(c.spec())
}

// Split runs a configuration twice (realistic and perfect data memory)
// and returns the compute/memory-stall decomposition.
func Split(c Config) (Decomposition, error) {
	return harness.Decompose(c.spec())
}

// Engines lists the registered prefetch engines: the paper's own
// dependence-based ("dbp") and hardware jump-pointer ("hw") engines
// plus the competitor zoo ("stride", "markov", "hybrid").
func Engines() []string { return prefetch.Names() }

// BenchmarkInfo describes one workload of the suite.
type BenchmarkInfo struct {
	Name        string
	Description string
	Structures  string
	Idioms      []Idiom
	Traversals  int
}

// Benchmarks lists every registered workload: the Olden family, then
// the internal/kernels family, each alphabetically.
func Benchmarks() []BenchmarkInfo {
	var out []BenchmarkInfo
	for _, b := range olden.All() {
		out = append(out, BenchmarkInfo{
			Name:        b.Name,
			Description: b.Description,
			Structures:  b.Structures,
			Idioms:      b.Idioms,
			Traversals:  b.Traversals,
		})
	}
	return out
}

// ExpConfig parameterizes experiment reproduction.
type ExpConfig = harness.ExpConfig

// Report is a rendered experiment.
type Report = harness.Report

// ExperimentIDs lists the reproducible paper artifacts in paper order.
func ExperimentIDs() []string {
	var out []string
	for _, e := range harness.Experiments() {
		out = append(out, e.ID)
	}
	return out
}

// ValidationFailure is one divergence found by Validate: a timing-core
// run whose committed instruction stream, heap state or cycle count
// broke an architectural invariant.
type ValidationFailure = validate.Failure

// ValidationOptions configures Validate.  The zero value runs every
// registered benchmark plus 25 seeded random micro-IR programs at the
// test input size, under every prefetch scheme, with cycle skipping
// both on and off.
type ValidationOptions = validate.MatrixOptions

// Validate runs the differential validation matrix: every workload
// executes on the out-of-order core and its commit stream is checked
// byte-for-byte against an in-order functional oracle (and, for
// generated programs, an independent reference interpreter).  Progress
// lines go to w (nil discards); the returned slice is empty when the
// simulator is self-consistent.
func Validate(w io.Writer, o ValidationOptions) []ValidationFailure {
	return validate.RunMatrix(w, o)
}

// Reproduce regenerates one paper artifact ("table1", "table2", "fig4",
// "fig5", "fig6", "fig7" or "costs").
func Reproduce(id string, cfg ExpConfig) (Report, error) {
	fn, ok := harness.ExperimentByID(id)
	if !ok {
		return Report{}, fmt.Errorf("repro: unknown experiment %q (have %v)", id, ExperimentIDs())
	}
	return fn(cfg)
}
