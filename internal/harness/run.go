// Package harness assembles full simulations and reproduces every table
// and figure of the paper's evaluation (see DESIGN.md's per-experiment
// index).
package harness

import (
	"fmt"
	"time"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dbp"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/olden"
	"repro/internal/prefetch"
	"repro/internal/stats"
)

// Spec describes one simulation run.
type Spec struct {
	Bench  string
	Params olden.Params

	// Engine names a registered prefetch engine (internal/prefetch) to
	// attach to the core; "" selects the scheme's historical default
	// (prefetch.DefaultFor), which preserves the paper-artifact
	// configurations.  Engines never attach to perfect-memory runs.
	Engine string

	// Kernel, when non-nil, supplies the workload directly instead of
	// looking Bench up in the workload registry (olden.ByName: the
	// Olden family plus internal/kernels); Bench then only labels the
	// run.  The validate subsystem runs generated micro-IR programs
	// through the full pipeline this way, and tests use it to inject
	// failing workloads into batches.  The function is invoked once per
	// run and must not build state shared between concurrent runs.
	Kernel func(*ir.Asm)

	// Timeout bounds the run's wall-clock time under RunGuarded and
	// RunBatch; zero means no deadline.  A run that exceeds it is
	// abandoned (its goroutine drains in the background — set
	// CPU.MaxCycles as a hard backstop) and its slot reports a
	// DeadlineError.
	Timeout time.Duration

	// Mem, CPU, DBP, HW override the Table 2 defaults when non-nil.
	Mem *cache.Params
	CPU *cpu.Config
	DBP *dbp.Config
	HW  *core.HWConfig

	// Sampling switches the run to sampled simulation (detailed timing
	// on periodic intervals, functional fast-forward between them; see
	// cpu.SamplingConfig).  Cycle counts become extrapolations with
	// error bars and the snapshot is flagged Sampled; architectural
	// digests stay bit-identical to a full run.  Nil (the default) is
	// full fidelity.
	Sampling *cpu.SamplingConfig
}

// Result collects every statistic a run produces.
type Result struct {
	Spec  Spec
	CPU   cpu.Stats
	Cache cache.Stats
	Insts ir.Stats
	Bpred bpred.Stats

	// EngineName is the resolved registry engine attached to the run
	// ("" when none was attached); PrefEngine is the live engine
	// instance, exposed for conformance tests and diagnostics.
	EngineName string
	PrefEngine cpu.PrefetchEngine

	// Engine stats are present when the attached engine exposes
	// dependence-engine counters (dbp, hw, hybrid); HW when it exposes
	// jump-pointer counters (hw, hybrid).
	Engine *dbp.Stats
	HW     *core.HWStats

	// Stats is the versioned cycle-attribution and
	// prefetch-effectiveness snapshot (the jppsim -stats-json payload).
	Stats stats.Snapshot

	// Hier exposes the hierarchy for tests and diagnostics; Heap
	// exposes the simulated allocator so tests can checksum
	// architectural state.
	Hier *cache.Hierarchy
	Heap *heap.Allocator
}

// Cycles returns the run's execution time in cycles.
func (r Result) Cycles() uint64 { return r.CPU.Cycles }

// Run executes one simulation to completion.
func Run(spec Spec) (Result, error) {
	kernel := spec.Kernel
	if kernel == nil {
		bench, ok := olden.ByName(spec.Bench)
		if !ok {
			return Result{}, fmt.Errorf("harness: unknown benchmark %q", spec.Bench)
		}
		kernel = bench.Kernel(spec.Params)
	}

	memP := cache.Defaults()
	if spec.Mem != nil {
		memP = *spec.Mem
	}
	cpuC := cpu.Defaults()
	if spec.CPU != nil {
		cpuC = *spec.CPU
	}
	dbpC := dbp.Defaults()
	if spec.DBP != nil {
		dbpC = *spec.DBP
	}
	hwC := core.DefaultHWConfig()
	if spec.HW != nil {
		hwC = *spec.HW
	}

	// Resolve the prefetch engine through the registry: an explicit
	// Spec.Engine wins, otherwise the scheme's historical default.
	// Spec.Params.Interval is routed uniformly through the factory
	// config, so every engine's lookahead honors a swept interval.
	engineName := spec.Engine
	if engineName == "" {
		engineName = prefetch.DefaultFor(spec.Params.Scheme)
	}
	attach := engineName != "" && !memP.PerfectData
	memP.EnablePB = attach

	img := mem.NewImage()
	alloc := heap.New(img)
	hier := cache.New(memP)
	pred := bpred.New(bpred.Defaults())

	var eng cpu.PrefetchEngine
	if attach {
		var err error
		eng, err = prefetch.New(engineName, prefetch.Config{
			DBP:      dbpC,
			HW:       hwC,
			Interval: spec.Params.Interval,
		}, hier, alloc)
		if err != nil {
			return Result{}, err
		}
	}

	if spec.Sampling != nil {
		sc := *spec.Sampling
		cpuC.Sampling = &sc
	}

	// The core config's replay knob selects the generator's emission
	// mode only: the core dispatches from the per-instruction metadata
	// either way, so a replay-off run differs from the default solely
	// in how that metadata is produced (live decode, no replay cache).
	gen := ir.NewGenWith(alloc, kernel, ir.GenOptions{
		DisableReplay: cpuC.DisableBlockReplay,
	})
	c := cpu.New(cpuC, hier, pred, eng)
	cpuStats := c.Run(gen)

	res := Result{
		Spec:       spec,
		CPU:        cpuStats,
		Cache:      hier.Stats(),
		Insts:      gen.Stats(),
		Bpred:      pred.Stats(),
		PrefEngine: eng,
		Hier:       hier,
		Heap:       alloc,
	}
	if attach {
		res.EngineName = engineName
	}
	if ds, ok := eng.(interface{ Stats() dbp.Stats }); ok {
		s := ds.Stats()
		res.Engine = &s
	}
	if hs, ok := eng.(interface{ HWStats() core.HWStats }); ok {
		h := hs.HWStats()
		res.HW = &h
	}
	res.Stats = buildSnapshot(&res)
	return res, nil
}

// buildSnapshot assembles the versioned stats record from a finished
// run's counters.  It finalizes the hierarchy's prefetch tracker, so it
// runs once, after the simulation completes.
func buildSnapshot(r *Result) stats.Snapshot {
	p := r.Hier.PrefetchStats()
	rep := stats.PrefetchReport{
		PrefetchStats: p,
		SWIssued:      r.CPU.CommitByCl[ir.Prefetch],
		Derived:       p.Metrics(),
	}
	if rq, ok := r.PrefEngine.(prefetch.Requester); ok {
		// Issued fills + already-present discards: both reached the
		// hierarchy choke point, so both were counted by the Tracker
		// (the dropped ones retire immediately as useless).  This is
		// the engine's exact share of the Tracker's Issued count; the
		// per-source identity SWIssued + EngineIssued == Issued is
		// enforced by Snapshot.Validate for complete realistic runs.
		issued, dropped := rq.CacheRequests()
		rep.EngineIssued = issued + dropped
	}
	// The replay section is present exactly when block replay ran
	// (the default; Spec.CPU can opt out).  Zero counters with the
	// section present are meaningful: a workload the cache could not
	// capture at all.
	var repRep *stats.ReplayReport
	if r.Spec.CPU == nil || !r.Spec.CPU.DisableBlockReplay {
		repRep = &stats.ReplayReport{
			BlocksCaptured: r.Insts.BlocksCaptured,
			ReplayedInsts:  r.Insts.ReplayedInsts,
			ReplayAborts:   r.Insts.ReplayAborts,
		}
		if total := r.Insts.Total(); total > 0 {
			repRep.HitRate = float64(r.Insts.ReplayedInsts) / float64(total)
		}
	}
	var samRep *stats.SamplingReport
	if sam := r.CPU.Sample; sam != nil {
		samRep = &stats.SamplingReport{
			Intervals:      sam.Intervals,
			MeasuredInsts:  sam.MeasuredInsts,
			MeasuredCycles: sam.MeasuredCycles,
			FFInsts:        sam.FFInsts,
			CPIMean:        sam.CPIMean,
			CPIStdErr:      sam.CPIStdErr,
			CyclesLo:       sam.CyclesLo,
			CyclesHi:       sam.CyclesHi,
		}
	}
	return stats.Snapshot{
		Version:          stats.SchemaVersion,
		Bench:            r.Spec.Bench,
		Scheme:           r.Spec.Params.Scheme.String(),
		Idiom:            r.Spec.Params.Idiom.String(),
		Engine:           r.EngineName,
		PerfectMem:       r.Spec.Mem != nil && r.Spec.Mem.PerfectData,
		Size:             r.Spec.Params.Size.String(),
		Cycles:           r.CPU.Cycles,
		Insts:            r.CPU.Insts,
		IPC:              r.CPU.IPC(),
		Truncated:        r.CPU.Truncated,
		Sampled:          samRep != nil,
		Sampling:         samRep,
		CyclesByCategory: r.CPU.Attribution,
		Prefetch:         rep,
		Cache: stats.CacheReport{
			L1DAccesses: r.Cache.L1DAccesses,
			L1DMisses:   r.Cache.L1DMisses,
			L2Accesses:  r.Cache.L2Accesses,
			L2Misses:    r.Cache.L2Misses,
			PBHits:      r.Cache.PBHits,
			PBFills:     r.Cache.PBFills,
			L1L2Bytes:   r.Cache.L1L2Bytes,
			MemBytes:    r.Cache.MemBytes,
		},
		Replay: repRep,
	}
}

// Decomposition splits a configuration's execution time into compute
// time and memory stall time, following the paper's method: the compute
// portion is a second simulation with uniform single-cycle data memory
// (but realistic port bandwidth); the remainder is memory stall.
type Decomposition struct {
	Total   uint64
	Compute uint64
	// Full is the realistic run's result.  It holds statistics only:
	// Hier, Heap and PrefEngine are nil, as in every batch slot (see
	// RunItem); run the spec through Run to keep the machine.
	Full Result
}

// Memory returns the memory-stall cycles.
func (d Decomposition) Memory() uint64 {
	if d.Total < d.Compute {
		return 0
	}
	return d.Total - d.Compute
}

// perfectSpec derives the perfect-data-memory variant of a spec (the
// compute-time pass of the paper's decomposition method).
func perfectSpec(spec Spec) Spec {
	memP := cache.Defaults()
	if spec.Mem != nil {
		memP = *spec.Mem
	}
	memP.PerfectData = true
	spec.Mem = &memP
	return spec
}

// Decompose runs spec twice (realistic + perfect data memory): the
// one-spec case of DecomposeBatch, so the two passes run concurrently,
// fault-isolated, and Full holds statistics only.  A spec that already
// requests perfect data memory has no memory stall to measure: it runs
// once and reports Total == Compute.
func Decompose(spec Spec) (Decomposition, error) {
	it := DecomposeBatch([]Spec{spec}, 2)[0]
	return it.Decomp, it.Err
}

// defaultsWithLatency returns the Table 2 memory system with a
// different main-memory latency (the Figure 7 sweeps).
func defaultsWithLatency(lat int) cache.Params {
	m := cache.Defaults()
	m.MemLatency = lat
	return m
}
