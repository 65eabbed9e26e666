package main

import (
	"fmt"
	"time"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dbp"
	"repro/internal/harness"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/prefetch"
)

// machine is one assembled simulation: the parts harness.Run builds,
// kept reachable so a traced run can compare every counter with the
// untraced run of the same spec.
type machine struct {
	memP cache.Params
	hier *cache.Hierarchy
	pred *bpred.Predictor
	// eng is the registry engine as built, before any decoration; nil
	// when no engine attaches.
	eng  cpu.PrefetchEngine
	gen  *ir.Gen
	core *cpu.Core
}

// newMachine assembles spec's simulation through the same public
// constructors, in the same order, as harness.Run: the Table 2
// defaults, the engine prefetch.DefaultFor picks for the scheme, the
// prefetch buffer enabled exactly when an engine attaches, and the same
// generator options.  tracer, when non-nil, observes every committed
// instruction; wrap, when non-nil, decorates the engine the core sees.
// Machine overrides are refused: no workload sets them, and mirroring
// them would only add ways for this assembly to drift from the harness.
func newMachine(spec harness.Spec, tracer cpu.Tracer, wrap func(cpu.PrefetchEngine) cpu.PrefetchEngine) (*machine, error) {
	if spec.Kernel != nil || spec.Mem != nil || spec.CPU != nil || spec.DBP != nil || spec.HW != nil || spec.Sampling != nil {
		return nil, fmt.Errorf("machine overrides are not supported")
	}
	kernel, err := kernelFor(spec)
	if err != nil {
		return nil, err
	}
	memP := cache.Defaults()
	cpuC := cpu.Defaults()
	engineName := spec.Engine
	if engineName == "" {
		engineName = prefetch.DefaultFor(spec.Params.Scheme)
	}
	attach := engineName != "" && !memP.PerfectData
	memP.EnablePB = attach

	alloc := heap.New(mem.NewImage())
	m := &machine{memP: memP, hier: cache.New(memP), pred: bpred.New(bpred.Defaults())}
	var eng cpu.PrefetchEngine
	if attach {
		m.eng, err = prefetch.New(engineName, prefetch.Config{
			DBP:      dbp.Defaults(),
			HW:       core.DefaultHWConfig(),
			Interval: spec.Params.Interval,
		}, m.hier, alloc)
		if err != nil {
			return nil, err
		}
		eng = m.eng
		if wrap != nil {
			eng = wrap(m.eng)
		}
	}
	m.gen = ir.NewGenWith(alloc, kernel, ir.GenOptions{DisableReplay: cpuC.DisableBlockReplay})
	cpuC.Tracer = tracer
	m.core = cpu.New(cpuC, m.hier, m.pred, eng)
	return m, nil
}

// kernelFor resolves spec's workload the way harness.Run does.
func kernelFor(spec harness.Spec) (func(*ir.Asm), error) {
	b, ok := harness.BenchByName(spec.Bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", spec.Bench)
	}
	return b.Kernel(spec.Params), nil
}

// drain emits spec's instruction stream through ir.NewGenWith and
// NextBatch without simulating it, with the generator options
// harness.Run uses.  It returns the time taken, the emission stats and
// the number of batches.
func drain(spec harness.Spec) (time.Duration, ir.Stats, uint64, error) {
	kernel, err := kernelFor(spec)
	if err != nil {
		return 0, ir.Stats{}, 0, err
	}
	alloc := heap.New(mem.NewImage())
	start := time.Now()
	gen := ir.NewGenWith(alloc, kernel, ir.GenOptions{DisableReplay: cpu.Defaults().DisableBlockReplay})
	var batches uint64
	for {
		ins, _ := gen.NextBatch()
		if ins == nil {
			break
		}
		batches++
	}
	return time.Since(start), gen.Stats(), batches, nil
}

// censusInsts counts the instructions a census of simulations commits,
// draining each distinct kernel once; memo carries counts between calls.
func censusInsts(specs []harness.Spec, memo map[string]uint64) (uint64, error) {
	var total uint64
	for _, s := range specs {
		key := fmt.Sprintf("%s %+v", s.Bench, s.Params)
		n, ok := memo[key]
		if !ok {
			_, st, _, err := drain(s)
			if err != nil {
				return 0, err
			}
			n = st.Total()
			memo[key] = n
		}
		total += n
	}
	return total, nil
}

// sameRun reports every counter on which the traced machine m, which
// finished with core stats st, differs from the untraced harness.Run
// result res of the same spec.
func sameRun(res harness.Result, m *machine, st cpu.Stats) error {
	var diffs []string
	check := func(name string, equal bool) {
		if !equal {
			diffs = append(diffs, name)
		}
	}
	check("cpu", st == res.CPU)
	check("cache", m.hier.Stats() == res.Cache)
	check("prefetch outcomes", m.hier.PrefetchStats() == res.Stats.Prefetch.PrefetchStats)
	check("ir", m.gen.Stats() == res.Insts)
	check("bpred", m.pred.Stats() == res.Bpred)
	check("engine attachment", (m.eng == nil) == (res.PrefEngine == nil))
	if rq, ok := m.eng.(prefetch.Requester); ok {
		issued, dropped := rq.CacheRequests()
		check("engine requests", issued+dropped == res.Stats.Prefetch.EngineIssued)
	}
	if ds, ok := m.eng.(interface{ Stats() dbp.Stats }); ok {
		check("engine", res.Engine != nil && ds.Stats() == *res.Engine)
	}
	if hs, ok := m.eng.(interface{ HWStats() core.HWStats }); ok {
		check("jump pointers", res.HW != nil && hs.HWStats() == *res.HW)
	}
	if len(diffs) > 0 {
		return fmt.Errorf("traced run differs from harness.Run in %v", diffs)
	}
	return nil
}
