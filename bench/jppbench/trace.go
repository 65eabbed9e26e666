package main

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"time"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/ir"
)

// The traced pass attributes host time to the simulator's layers from
// outside the program: every span is timed around a public call made
// from this package.  Per simulation it runs
//
//   - harness.Run untraced, the reference wall time and counters;
//   - the same machine assembled here (newMachine) with a cpu.Tracer
//     recording the core's calls into the cache hierarchy and the branch
//     predictor, and a decorator timing every prefetch-engine call —
//     every counter must then equal the untraced run's;
//   - the spec's instruction stream drained standalone (the ir layer);
//   - the recorded cache and branch streams replayed into fresh
//     instances (the cache and bpred layers).
//
// The cpu layer is what remains of the untraced wall time, including
// the generator-to-core handoff.  Spans are summed per simulation, not
// kept per call: a large run crosses the prefetch boundary about ten
// million times.

// instFetch marks a recorded instruction fetch among the data accesses,
// whose kinds are cache.Kind values.
const instFetch = 0xff

// access is one recorded call into the cache hierarchy.
type access struct {
	cycle uint64
	addr  uint32
	kind  uint8
}

// branch is one recorded call into the branch predictor.
type branch struct {
	pc, target  uint32
	cond, taken bool
}

// recorder is the traced run's cpu.Tracer.  From the committed stream
// it rebuilds the core's calls into the hierarchy — demand loads, stores
// and software prefetches at their issue cycles, and an instruction
// fetch at dispatch whenever the fetch line changes — and into the
// predictor: every conditional branch and every jump but a return, in
// fetch order.  Loads served by store forwarding never reached the
// hierarchy but are recorded like any load: the commit stream does not
// tell them apart.
type recorder struct {
	lineShift uint
	line      uint32 // current fetch line + 1; 0 after a redirect
	accesses  []access
	branches  []branch
}

func newRecorder() *recorder {
	return &recorder{lineShift: uint(bits.TrailingZeros(uint(cache.Defaults().L1I.LineBytes)))}
}

func (r *recorder) Trace(d *ir.DynInst, dispatched, issued, _ uint64) {
	if line := d.PC>>r.lineShift + 1; line != r.line {
		r.accesses = append(r.accesses, access{cycle: dispatched, addr: d.PC, kind: instFetch})
		r.line = line
	}
	switch d.Class {
	case ir.Load:
		r.accesses = append(r.accesses, access{cycle: issued, addr: d.Addr, kind: uint8(cache.KLoad)})
	case ir.Store:
		r.accesses = append(r.accesses, access{cycle: issued, addr: d.Addr, kind: uint8(cache.KStore)})
	case ir.Prefetch:
		r.accesses = append(r.accesses, access{cycle: issued, addr: d.Addr, kind: uint8(cache.KPref)})
	case ir.Branch:
		r.branches = append(r.branches, branch{pc: d.PC, target: d.Target, cond: true, taken: d.Taken})
		if d.Taken {
			r.line = 0
		}
	case ir.Jump:
		if d.Flags&ir.FReturn == 0 {
			r.branches = append(r.branches, branch{pc: d.PC, target: d.Target})
		}
		r.line = 0
	}
}

// replayCache replays recorded accesses, in issue-cycle order, into a
// fresh hierarchy built from p, and returns the time the calls took.
func replayCache(accesses []access, p cache.Params) time.Duration {
	slices.SortStableFunc(accesses, func(a, b access) int { return cmp.Compare(a.cycle, b.cycle) })
	h := cache.New(p)
	start := time.Now()
	for _, a := range accesses {
		if a.kind == instFetch {
			h.AccessInst(a.cycle, a.addr)
		} else {
			h.AccessData(a.cycle, a.addr, cache.Kind(a.kind))
		}
	}
	return time.Since(start)
}

// replayBpred replays recorded branches into a fresh Table 2 predictor
// and returns the time the calls took and the predictor's stats.
func replayBpred(branches []branch) (time.Duration, bpred.Stats) {
	p := bpred.New(bpred.Defaults())
	start := time.Now()
	for _, b := range branches {
		if b.cond {
			p.PredictCond(b.pc, b.taken, b.target)
		} else {
			p.PredictJump(b.pc, b.target)
		}
	}
	return time.Since(start), p.Stats()
}

// timedEngine decorates a prefetch engine, summing the wall time of
// every call the core makes into it.  The sum includes the clock reads'
// own cost, which calibrateClock measures so it can be subtracted.  The
// engine's own calls into the hierarchy fall inside its time.
type timedEngine struct {
	inner        cpu.PrefetchEngine
	spent        time.Duration
	calls, ticks uint64
}

func (t *timedEngine) OnLoadIssue(now uint64, d *ir.DynInst) {
	start := time.Now()
	t.inner.OnLoadIssue(now, d)
	t.spent += time.Since(start)
	t.calls++
}

func (t *timedEngine) OnLoadComplete(now uint64, d *ir.DynInst) {
	start := time.Now()
	t.inner.OnLoadComplete(now, d)
	t.spent += time.Since(start)
	t.calls++
}

func (t *timedEngine) OnCommit(now uint64, d *ir.DynInst) {
	start := time.Now()
	t.inner.OnCommit(now, d)
	t.spent += time.Since(start)
	t.calls++
}

func (t *timedEngine) OnSWPrefetch(now uint64, d *ir.DynInst, done uint64) {
	start := time.Now()
	t.inner.OnSWPrefetch(now, d, done)
	t.spent += time.Since(start)
	t.calls++
}

func (t *timedEngine) Tick(now uint64, freePorts int) int {
	start := time.Now()
	used := t.inner.Tick(now, freePorts)
	t.spent += time.Since(start)
	t.calls++
	t.ticks++
	return used
}

func (t *timedEngine) NextEventAt(now uint64) uint64 {
	start := time.Now()
	next := t.inner.NextEventAt(now)
	t.spent += time.Since(start)
	t.calls++
	return next
}

// nopEngine does nothing; calibrateClock times calls into it.
type nopEngine struct{}

func (nopEngine) OnLoadIssue(uint64, *ir.DynInst)          {}
func (nopEngine) OnLoadComplete(uint64, *ir.DynInst)       {}
func (nopEngine) OnCommit(uint64, *ir.DynInst)             {}
func (nopEngine) OnSWPrefetch(uint64, *ir.DynInst, uint64) {}
func (nopEngine) Tick(uint64, int) int                     { return 0 }
func (nopEngine) NextEventAt(uint64) uint64                { return ^uint64(0) }

// calibrateClock returns, in nanoseconds, what timedEngine records for
// a call that does no work: the median over several rounds.
func calibrateClock() float64 {
	const rounds, calls = 5, 100_000
	per := make([]float64, rounds)
	for r := range per {
		t := &timedEngine{inner: nopEngine{}}
		for i := 0; i < calls; i++ {
			t.OnCommit(0, nil)
		}
		per[r] = float64(t.spent.Nanoseconds()) / calls
	}
	return quartilesOf(per).med
}

// specTrace holds one simulation's traced measurements; summed over a
// workload it holds the workload's.
type specTrace struct {
	runs int
	// untraced and traced are the two runs' wall times; setup is the
	// traced machine's construction.
	untraced, traced, setup time.Duration
	// Layer self times; prefetch has the clock cost removed.
	ir, cache, bpred, prefetch time.Duration
	// Calls across each layer boundary.
	batches, accesses, branches, engineCalls, ticks uint64
	// Simulated counts from the untraced run.
	insts, cycles, emitted, replayed, l1dMisses, l2Misses, pbFills uint64
}

func (t *specTrace) add(u specTrace) {
	t.runs += u.runs
	t.untraced += u.untraced
	t.traced += u.traced
	t.setup += u.setup
	t.ir += u.ir
	t.cache += u.cache
	t.bpred += u.bpred
	t.prefetch += u.prefetch
	t.batches += u.batches
	t.accesses += u.accesses
	t.branches += u.branches
	t.engineCalls += u.engineCalls
	t.ticks += u.ticks
	t.insts += u.insts
	t.cycles += u.cycles
	t.emitted += u.emitted
	t.replayed += u.replayed
	t.l1dMisses += u.l1dMisses
	t.l2Misses += u.l2Misses
	t.pbFills += u.pbFills
}

// residual is the cpu layer: the untraced wall time no other layer
// accounts for.
func (t specTrace) residual() time.Duration {
	return t.untraced - t.ir - t.cache - t.bpred - t.prefetch
}

// traceSpec measures one simulation's layers; clockNS is the
// calibrated cost of a timed engine call.
func traceSpec(spec harness.Spec, clockNS float64) (specTrace, error) {
	var t specTrace
	err := guard(func() error { return t.measure(spec, clockNS) })
	return t, err
}

func (t *specTrace) measure(spec harness.Spec, clockNS float64) error {
	start := time.Now()
	res, err := harness.RunGuarded(spec)
	t.untraced = time.Since(start)
	if err != nil {
		return err
	}
	if err := res.Stats.Validate(); err != nil {
		return err
	}

	rec := newRecorder()
	var eng *timedEngine
	start = time.Now()
	m, err := newMachine(spec, rec, func(e cpu.PrefetchEngine) cpu.PrefetchEngine {
		eng = &timedEngine{inner: e}
		return eng
	})
	if err != nil {
		return err
	}
	t.setup = time.Since(start)
	st := m.core.Run(m.gen)
	t.traced = time.Since(start)
	if err := sameRun(res, m, st); err != nil {
		return err
	}

	var emitted ir.Stats
	t.ir, emitted, t.batches, err = drain(spec)
	if err != nil {
		return err
	}
	if emitted != res.Insts {
		return fmt.Errorf("standalone generator emitted a different stream")
	}
	t.accesses = uint64(len(rec.accesses))
	t.cache = replayCache(rec.accesses, m.memP)
	t.branches = uint64(len(rec.branches))
	var predicted bpred.Stats
	t.bpred, predicted = replayBpred(rec.branches)
	if predicted != res.Bpred {
		return fmt.Errorf("replayed branch stream predicts differently from the run")
	}
	if eng != nil {
		t.engineCalls, t.ticks = eng.calls, eng.ticks
		t.prefetch = max(0, eng.spent-time.Duration(clockNS*float64(eng.calls)))
	}
	t.runs = 1
	t.insts, t.cycles = res.CPU.Insts, res.CPU.Cycles
	t.emitted, t.replayed = res.Insts.Total(), res.Insts.ReplayedInsts
	t.l1dMisses, t.l2Misses, t.pbFills = res.Cache.L1DMisses, res.Cache.L2Misses, res.Cache.PBFills
	return nil
}

// span is one layer's summed time in one traced simulation.  Spans of a
// simulation share workload and run; calls counts the crossings of the
// layer's boundary (generator batches, hierarchy and predictor calls,
// engine calls).
type span struct {
	Workload string `json:"workload"`
	Run      int    `json:"run"`
	Spec     string `json:"spec"`
	Name     string `json:"name"`
	Parent   string `json:"parent,omitempty"`
	Calls    uint64 `json:"calls"`
	DurNS    int64  `json:"dur_ns"`
}

func (t specTrace) spans(workload string, run int, spec string) []span {
	mk := func(name, parent string, calls uint64, d time.Duration) span {
		return span{Workload: workload, Run: run, Spec: spec, Name: name, Parent: parent, Calls: calls, DurNS: d.Nanoseconds()}
	}
	return []span{
		mk("run", "", 1, t.untraced),
		mk("ir", "run", t.batches, t.ir),
		mk("cache", "run", t.accesses, t.cache),
		mk("bpred", "run", t.branches, t.bpred),
		mk("prefetch", "run", t.engineCalls, t.prefetch),
		mk("cpu", "run", 1, t.residual()),
		mk("traced", "", 1, t.traced),
		mk("harness.setup", "traced", 1, t.setup),
	}
}

// tracePass runs w's traced pass: every spec once, in the seed's order,
// then, for paper-artifacts, each artifact once with its wall time.
func tracePass(w workload, seed uint64) (*outcome, []span) {
	o := &outcome{workload: w.name}
	rng := rand.New(rand.NewPCG(seed, 0))
	var sum specTrace
	var spans []span
	var clocks []float64
	for run, i := range rng.Perm(len(w.specs)) {
		spec := w.specs[i]
		o.attempted++
		// Calibrating beside each run follows the host's speed, which
		// drifts by tens of percent on a shared machine.
		clockNS := calibrateClock()
		clocks = append(clocks, clockNS)
		t, err := traceSpec(spec, clockNS)
		if err != nil {
			o.fail("%s: %v", specLabel(spec), err)
			continue
		}
		sum.add(t)
		spans = append(spans, t.spans(w.name, run, specLabel(spec))...)
	}
	o.passes = 1
	o.setLayers(sum, quartilesOf(clocks).med)
	for _, a := range w.artifacts {
		o.attempted++
		start := time.Now()
		err := guard(func() error {
			_, err := a.fn(harness.ExpConfig{Size: w.size, Workers: paperWorkers})
			return err
		})
		if err != nil {
			o.fail("%s: %v", a.id, err)
			continue
		}
		o.extra = append(o.extra, metricValue{
			metricDef: metricDef{name: "harness." + a.id + "_s", unit: "s"},
			value:     time.Since(start).Seconds(),
		})
	}
	return o, spans
}

// setLayers derives the per-layer metrics from a workload's summed
// traces; clockNS is the median calibration.  Shares are of the
// untraced wall time.
func (o *outcome) setLayers(s specTrace, clockNS float64) {
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }
	share := func(d time.Duration) float64 { return 100 * ratio(ns(d), ns(s.untraced)) }
	perK := func(n, of uint64) float64 { return 1000 * ratio(float64(n), float64(of)) }
	o.setValue("ir.emit_ns_per_inst", ratio(ns(s.ir), float64(s.emitted)))
	o.setValue("ir.share", share(s.ir))
	o.setValue("ir.replay_hit_rate", ratio(float64(s.replayed), float64(s.emitted)))
	o.setValue("cache.ns_per_access", ratio(ns(s.cache), float64(s.accesses)))
	o.setValue("cache.share", share(s.cache))
	o.setValue("cache.l1d_mpki", perK(s.l1dMisses, s.insts))
	o.setValue("cache.l2_mpki", perK(s.l2Misses, s.insts))
	o.setValue("bpred.ns_per_branch", ratio(ns(s.bpred), float64(s.branches)))
	o.setValue("bpred.share", share(s.bpred))
	o.setValue("prefetch.ns_per_call", ratio(ns(s.prefetch), float64(s.engineCalls)))
	o.setValue("prefetch.share", share(s.prefetch))
	o.setValue("prefetch.calls_per_kinst", perK(s.engineCalls, s.insts))
	o.setValue("prefetch.ticks_per_kcycle", perK(s.ticks, s.cycles))
	o.setValue("prefetch.pb_fills_per_kinst", perK(s.pbFills, s.insts))
	o.setValue("cpu.residual_ns_per_cycle", ratio(ns(s.residual()), float64(s.cycles)))
	o.setValue("cpu.share", share(s.residual()))
	o.setValue("cpu.sim_cycles", float64(s.cycles))
	o.setValue("cpu.ipc", ratio(float64(s.insts), float64(s.cycles)))
	o.setValue("harness.setup_us_per_run", ratio(ns(s.setup)/1e3, float64(s.runs)))
	o.setValue("trace.overhead_pct", 100*ratio(ns(s.traced-s.untraced), ns(s.untraced)))
	o.setValue("trace.clock_ns", clockNS)
}
