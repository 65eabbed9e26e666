// Package cpu implements the out-of-order timing core of the paper's
// Table 2 machine: a 5-stage, 4-way superscalar pipeline with 64
// instructions in flight, a 32-entry load/store queue with a 1-cycle
// load bypass (loads wait for all previous store addresses before
// issuing), the listed functional units, and software prefetches that
// are non-binding, complete on issue and may initiate TLB miss
// handling.
//
// The core consumes the dynamic instruction stream produced by
// internal/ir generators.  Because the stream is the committed path,
// wrong-path instructions are not executed; a mispredicted branch
// instead freezes fetch until it resolves plus a front-end refill
// penalty (an approximation documented in DESIGN.md).
//
// The issue scheduler keeps one bit per window slot in a uint64, so 64
// instructions in flight is its structural maximum; New rejects a
// larger (or empty) window.
package cpu

import (
	"fmt"
	"math/bits"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/ir"
	"repro/internal/stats"
)

// PrefetchEngine is the hook through which hardware prefetching
// mechanisms (DBP, cooperative chaining, hardware JPP) observe the core
// and inject prefetch requests.  All methods are called with the
// current cycle.
type PrefetchEngine interface {
	// OnLoadIssue fires when a demand load issues to the data cache.
	OnLoadIssue(now uint64, d *ir.DynInst)
	// OnLoadComplete fires when a demand load's value arrives.  The
	// record is reconstructed from the core's completion queue: only
	// PC, Value, Flags and Class are populated.
	OnLoadComplete(now uint64, d *ir.DynInst)
	// OnCommit fires for every instruction in program order.
	OnCommit(now uint64, d *ir.DynInst)
	// OnSWPrefetch fires when a software prefetch issues; done is the
	// cycle its block arrives.
	OnSWPrefetch(now uint64, d *ir.DynInst, done uint64)
	// Tick runs once per cycle with the number of idle data-cache
	// ports; it returns how many the engine consumed.
	Tick(now uint64, freePorts int) int
	// NextEventAt reports the earliest cycle strictly after now at
	// which the engine could act on its own (issue a queued request or
	// process a completed prefetch), assuming no further core events
	// reach it; ^uint64(0) means the engine is idle.  The core uses the
	// hint to skip provably quiescent cycles; an engine that cannot
	// tell may conservatively return now+1 at the cost of disabling
	// the skip.
	NextEventAt(now uint64) uint64
}

// FU describes one functional unit class: how many units exist and the
// operation latency.  Pipelined units accept one op per unit per cycle;
// non-pipelined units (the dividers and multiplier, as in SimpleScalar)
// are busy for the full latency.
type FU struct {
	Count     int
	Latency   int
	Pipelined bool
}

// Config parameterizes the core.  Defaults() is the Table 2 machine.
type Config struct {
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	WindowSize  int
	LSQSize     int
	MemPorts    int
	// MispredictPenalty is the front-end refill time after a resolved
	// misprediction.
	MispredictPenalty int
	// BTBMissPenalty is the fetch bubble for a direct jump whose target
	// missed in the BTB.
	BTBMissPenalty int

	FUs [ir.NumClasses]FU

	// MaxCycles aborts runaway simulations; 0 means no limit.
	MaxCycles uint64

	// DisableCycleSkip forces the core to tick every cycle instead of
	// jumping over provably quiescent spans.  The two modes are
	// cycle-exact equivalents (tests assert identical statistics); the
	// flag exists for validation and throughput comparisons.
	DisableCycleSkip bool

	// DisableBlockReplay turns off the generator's basic-block replay
	// cache (ir.GenOptions.DisableReplay).  The core does not read it:
	// it dispatches from the generator's per-instruction metadata in
	// both modes.  It stays in the machine config because that is what
	// jppsim -noreplay, the validation matrix and the jppbench benchmark
	// set or read; the harness forwards it to the generator and drops
	// the snapshot's replay section when it is set.  Both modes produce
	// identical statistics (tests assert it); the flag exists for
	// validation and throughput comparisons.
	DisableBlockReplay bool

	// InjectFault deliberately plants one architectural bug into the
	// commit stage (see Fault).  It exists solely so the differential
	// validation subsystem (internal/validate) can prove its oracle
	// catches real core defects; production runs leave it at FaultNone.
	InjectFault Fault
	// FaultAfter is the committed sequence number at (or after) which
	// the injected fault fires.
	FaultAfter uint64

	// Tracer, when non-nil, receives per-instruction pipeline events
	// (used by cmd/jpptrace and tests; nil costs nothing).
	Tracer Tracer

	// Sampling, when non-nil, switches Run to SMARTS-style sampled
	// simulation (see SamplingConfig): detailed timing on periodic
	// intervals, functional fast-forward between them, cycle counts
	// extrapolated with error bars.  Full-fidelity runs leave it nil.
	Sampling *SamplingConfig
}

// Fault selects a deliberately injected commit-stage bug, used as a
// mutation test of the differential validation driver: enabling one
// must make the driver's digest comparison fail, or the driver proves
// nothing.
type Fault uint8

// Injectable faults.
const (
	// FaultNone injects nothing (the production value).
	FaultNone Fault = iota
	// FaultDropCommit retires one instruction without reporting it: the
	// tracer, the prefetch engine and the commit counters never see it
	// (a lost commit).
	FaultDropCommit
	// FaultCorruptLoadValue flips the low bit of one committed load's
	// value as observed at commit (a wrong architectural value).
	FaultCorruptLoadValue
)

// Tracer observes pipeline events for every instruction.
type Tracer interface {
	// Trace reports one instruction's life: dispatch (entered the
	// window), issue, and completion cycles.
	Trace(d *ir.DynInst, dispatched, issued, done uint64)
}

// Defaults returns the paper's Table 2 core configuration.
func Defaults() Config {
	var fus [ir.NumClasses]FU
	fus[ir.Nop] = FU{Count: 4, Latency: 1, Pipelined: true}
	fus[ir.IntAlu] = FU{Count: 4, Latency: 1, Pipelined: true}
	fus[ir.IntMult] = FU{Count: 1, Latency: 3, Pipelined: false}
	fus[ir.IntDiv] = FU{Count: 1, Latency: 20, Pipelined: false}
	fus[ir.FpAdd] = FU{Count: 2, Latency: 2, Pipelined: true}
	fus[ir.FpMult] = FU{Count: 1, Latency: 4, Pipelined: false}
	fus[ir.FpDiv] = FU{Count: 1, Latency: 24, Pipelined: false}
	// Branches resolve on the integer ALUs.
	fus[ir.Branch] = FU{Count: 4, Latency: 1, Pipelined: true}
	fus[ir.Jump] = FU{Count: 4, Latency: 1, Pipelined: true}
	// Memory ops use the two cache ports (modelled separately); the FU
	// entry provides the 1-cycle address generation slot.
	fus[ir.Load] = FU{Count: 2, Latency: 1, Pipelined: true}
	fus[ir.Store] = FU{Count: 2, Latency: 1, Pipelined: true}
	fus[ir.Prefetch] = FU{Count: 2, Latency: 1, Pipelined: true}
	return Config{
		FetchWidth:        4,
		IssueWidth:        4,
		CommitWidth:       4,
		WindowSize:        64,
		LSQSize:           32,
		MemPorts:          2,
		MispredictPenalty: 3,
		BTBMissPenalty:    1,
		FUs:               fus,
	}
}

// Stats reports a run's outcome.
type Stats struct {
	Cycles       uint64
	Insts        uint64
	CommitByCl   [ir.NumClasses]uint64
	LDSLoadMiss  uint64
	OtherMiss    uint64
	DemandMisses uint64

	// MissOverlapSum accumulates, for every demand load miss, the
	// number of other demand misses in flight when it issued; divided
	// by DemandMisses it gives the paper's Table 1 parallelism metric.
	MissOverlapSum uint64

	Truncated bool

	// Sample is non-nil only for sampled runs (Config.Sampling set) and
	// carries the measurement/extrapolation breakdown and error bars.
	Sample *SampleStats

	// Attribution charges every simulated cycle to exactly one
	// category, judged at the commit stage; its Total() equals Cycles.
	Attribution stats.CycleBreakdown
}

// AvgMissOverlap returns the average in-flight demand misses observed
// by each demand miss (including itself).
func (s Stats) AvgMissOverlap() float64 {
	if s.DemandMisses == 0 {
		return 0
	}
	return float64(s.MissOverlapSum)/float64(s.DemandMisses) + 1
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

type robEntry struct {
	d            ir.DynInst
	doneAt       uint64
	dispatchedAt uint64
	issuedAt     uint64
	issued       bool
	isMem        bool
	missL1       bool

	// Scheduler state.  readyAt is the operand-ready time, valid once
	// waitLeft reaches zero; waitLeft counts distinct unissued producers
	// still owed a completion time.
	readyAt  uint64
	waitLeft uint8
}

// Core is one simulation instance.
type Core struct {
	cfg  Config
	hier *cache.Hierarchy
	pred *bpred.Predictor
	eng  PrefetchEngine

	now uint64

	rob     []robEntry
	head    int
	count   int
	headSeq uint64 // sequence number of the ROB head
	nextSeq uint64 // next sequence number to dispatch

	// Issue scheduler.  Bit i of each mask covers ROB slot i, so the
	// window holds at most 64 entries.  Unissued entries whose
	// operand-ready time is cached in readyAt are split by due time:
	// readyMask holds entries ready now (the issue loop visits only
	// them), pendMask holds entries whose readyAt is still in the
	// future, with the earliest such time cached in pendMin (^uint64(0)
	// when pendMask is empty).  Entries due by pendMin are promoted to
	// readyMask at the top of the issue stage.  Everything else is
	// asleep waiting for a producer to issue.  storeMask holds unissued
	// stores (the load-ordering rule).  waiters[p] is the set of slots
	// woken when slot p issues.
	readyMask uint64
	pendMask  uint64
	pendMin   uint64
	storeMask uint64
	waiters   []uint64

	lsqUsed int

	// storeQ is a FIFO of the stores currently in the window, in
	// program order (pushed at dispatch, popped at commit).  issueLoad
	// consults it for store-to-load forwarding instead of scanning the
	// whole window.
	storeQ     []storeRef
	storeHead  int
	storeCount int

	// Fetch state.
	fetchReadyAt uint64
	// blockSeq is the sequence of a mispredicted branch fetch waits on.
	blockSeq uint64
	// genDone records that the generator has been observed exhausted.
	genDone bool

	// Front end (fetchDispatchSpan): fetch walks whole generator
	// batches (span/spanMeta/spanPos) with their per-instruction
	// dispatch metadata.  spanLineDone latches that the head-of-span
	// instruction's fetch line has been requested, so a stall retry
	// does not access the I-cache again; spanStaged records that the
	// head-of-span instruction stalled (on its line or the LSQ) and is
	// the next to dispatch, for the skip logic.
	span         []ir.DynInst
	spanMeta     []ir.InstMeta
	spanPos      int
	spanLineDone bool
	spanStaged   bool

	// divFree tracks per-class next-free cycles for non-pipelined FUs.
	divFree [ir.NumClasses]uint64

	// outstanding demand-miss completion times (parallelism metric).
	missDone []uint64

	// pending load completions for engine callbacks.  loadDoneMin
	// caches the earliest due time across loadDone (^uint64(0) when
	// empty, exact otherwise) so the per-cycle delivery pass and
	// nextEventAt touch the queue only when an event is actually due.
	loadDone    []loadEvent
	loadDoneMin uint64
	// scratch rebuilds the reduced DynInst handed to OnLoadComplete.
	scratch ir.DynInst

	// faultFired records that the configured InjectFault has been
	// applied (each fault fires exactly once).
	faultFired bool

	s Stats
}

// loadEvent is a pending OnLoadComplete callback.  It carries only the
// fields engines consume (see PrefetchEngine.OnLoadComplete) rather
// than a full ir.DynInst copy per demand load.
type loadEvent struct {
	at    uint64
	pc    uint32
	value uint32
	flags ir.Flag
}

// storeRef is one in-window store in the forwarding FIFO.
type storeRef struct {
	seq  uint64
	addr uint32
}

// New builds a core over a hierarchy and branch predictor; eng may be
// nil for runs without hardware prefetching.  It panics when
// cfg.WindowSize is outside [1, 64]: the scheduler keeps one bit per
// window slot in a uint64.
func New(cfg Config, hier *cache.Hierarchy, pred *bpred.Predictor, eng PrefetchEngine) *Core {
	if cfg.WindowSize < 1 || cfg.WindowSize > 64 {
		panic(fmt.Sprintf("cpu: WindowSize %d outside [1, 64]", cfg.WindowSize))
	}
	storeCap := cfg.LSQSize
	if storeCap < 1 {
		storeCap = 1
	}
	// Ring capacities round up to powers of two so every wrap is a mask
	// instead of a division; logical occupancy is still bounded by
	// WindowSize / LSQSize.
	robCap := 1
	for robCap < cfg.WindowSize {
		robCap <<= 1
	}
	sqCap := 1
	for sqCap < storeCap {
		sqCap <<= 1
	}
	return &Core{
		cfg:    cfg,
		hier:   hier,
		pred:   pred,
		eng:    eng,
		rob:    make([]robEntry, robCap),
		storeQ: make([]storeRef, sqCap),
		// Pre-size the event queues so the steady state never grows
		// them: outstanding misses and pending load callbacks are both
		// bounded by the window (compaction reuses this backing store).
		missDone:    make([]uint64, 0, cfg.WindowSize),
		loadDone:    make([]loadEvent, 0, cfg.WindowSize),
		loadDoneMin: ^uint64(0),
		pendMin:     ^uint64(0),
		headSeq:     1,
		nextSeq:     1,
		waiters:     make([]uint64, robCap),
	}
}

// Run simulates the stream to completion and returns the statistics.
// When cfg.Sampling is set it delegates to the sampled-simulation loop
// (see sample.go), which drives the same cycle loop in spans.
func (c *Core) Run(gen *ir.Gen) Stats {
	if c.cfg.Sampling != nil {
		return c.runSampled(gen)
	}
	c.runDetailed(gen, ^uint64(0), true)
	c.s.Cycles = c.now
	return c.s
}

// runDetailed is the cycle loop: it advances the detailed timing
// simulation until the committed-instruction count reaches target, the
// stream ends, or MaxCycles trips.  With fetch false the front end is
// frozen (the drain that closes a sampled run's measured interval: the
// loop then also returns once the window empties).  It reports true
// when the stream is exhausted (including truncation).
func (c *Core) runDetailed(gen *ir.Gen, target uint64, fetch bool) bool {
	for {
		if c.s.Insts >= target {
			return false
		}
		if !fetch && c.count == 0 {
			return false
		}

		// ---- commit ----
		committed := c.commitStage()

		// ---- deliver load completions to the engine ----
		delivered := c.deliverLoads()

		// ---- issue ----
		seqBefore := c.nextSeq
		memUsed, issued, nextIssue := c.issue()

		// ---- fetch/dispatch ----
		done := false
		if fetch {
			if done = c.fetchDispatchSpan(gen); done {
				c.genDone = true
			}
		}

		// ---- prefetch engine ----
		if c.eng != nil {
			free := c.cfg.MemPorts - memUsed
			if free < 0 {
				free = 0
			}
			c.eng.Tick(c.now, free)
		}

		if done && c.count == 0 {
			return true
		}
		// Attribute this cycle before advancing so Attribution.Total()
		// equals Cycles on every exit path (the return above skips both
		// the attribution and the increment).
		c.s.Attribution.Account(c.classifyCycle(committed))
		c.now++
		if c.cfg.MaxCycles > 0 && c.now >= c.cfg.MaxCycles {
			c.s.Truncated = true
			gen.Stop()
			return true
		}

		// ---- event-driven cycle skipping ----
		// A cycle in which nothing committed, issued, dispatched or was
		// delivered leaves the pipeline in a fixed point: every following
		// cycle is identical bookkeeping until some timed event lands.
		// Jump straight to the earliest such event and account for the
		// skipped cycles in bulk; see nextEventAt for the invariants.
		if committed == 0 && issued == 0 && delivered == 0 &&
			c.nextSeq == seqBefore && !c.cfg.DisableCycleSkip {
			next := c.nextEventAt(nextIssue, fetch)
			if c.cfg.MaxCycles > 0 && next > c.cfg.MaxCycles {
				next = c.cfg.MaxCycles
			}
			if next > c.now {
				span := next - c.now
				// Each skipped cycle classifies identically: the window
				// contents, head state and counters are all frozen.
				c.s.Attribution.AccountN(c.classifyCycle(0), span)
				if c.eng != nil {
					// The engine provably had nothing due during the
					// span (nextEventAt consulted it), so the per-cycle
					// Ticks reduce to query-quota resets; one synthetic
					// Tick at the last skipped cycle reproduces the
					// state the next real cycle observes.
					c.eng.Tick(next-1, 0)
				}
				c.now = next
				if c.cfg.MaxCycles > 0 && c.now >= c.cfg.MaxCycles {
					c.s.Truncated = true
					gen.Stop()
					return true
				}
			}
		}
	}
}

// commitStage retires up to CommitWidth completed instructions from the
// window head, firing engine/tracer callbacks and applying any
// configured fault injection.
func (c *Core) commitStage() int {
	committed := 0
	for n := 0; n < c.cfg.CommitWidth && c.count > 0; n++ {
		e := &c.rob[c.head]
		if !e.issued || e.doneAt > c.now {
			break
		}
		dropped := false
		if c.cfg.InjectFault != FaultNone && !c.faultFired && e.d.Seq >= c.cfg.FaultAfter {
			switch c.cfg.InjectFault {
			case FaultDropCommit:
				c.faultFired = true
				dropped = true
			case FaultCorruptLoadValue:
				if e.d.Class == ir.Load {
					c.faultFired = true
					e.d.Value ^= 1
				}
			}
		}
		if !dropped {
			if c.eng != nil {
				c.eng.OnCommit(c.now, &e.d)
			}
			if c.cfg.Tracer != nil {
				c.cfg.Tracer.Trace(&e.d, e.dispatchedAt, e.issuedAt, e.doneAt)
			}
			c.s.CommitByCl[e.d.Class]++
			c.s.Insts++
		}
		if e.isMem {
			c.lsqUsed--
			if e.d.Class == ir.Store {
				c.storeHead = (c.storeHead + 1) & (len(c.storeQ) - 1)
				c.storeCount--
			}
		}
		c.head = (c.head + 1) & (len(c.rob) - 1)
		c.count--
		c.headSeq++
		committed++
	}
	return committed
}

// nextEventAt computes the earliest cycle >= c.now at which the frozen
// pipeline can change state, given that the cycle just simulated was
// completely quiescent.  Candidate events:
//
//   - the ROB head completing (commit can proceed);
//   - a queued engine load-completion callback coming due;
//   - a stalled instruction's operands becoming ready, or a
//     non-pipelined FU freeing (nextIssue, computed by issue());
//   - fetch unblocking (I-cache/BTB stall expiring) while it has work
//     it could dispatch;
//   - the prefetch engine acting on its own (NextEventAt hint).
//
// An instruction whose producer has not issued contributes no candidate:
// its wake-up is gated on that producer's issue, which is itself bounded
// by one of the candidates above (the chain of unissued producers ends
// at an instruction with known-ready operands).  A mispredict-frozen
// front end (blockSeq != 0) wakes only when the branch issues, which is
// likewise covered.
//
// With fetchActive false (a sampled run's drain, where the front end is
// frozen by construction rather than by a stall) fetch contributes no
// candidate.
func (c *Core) nextEventAt(nextIssue uint64, fetchActive bool) uint64 {
	next := nextIssue
	if c.count > 0 {
		if e := &c.rob[c.head]; e.issued && e.doneAt < next {
			next = e.doneAt
		}
	}
	if c.loadDoneMin < next {
		next = c.loadDoneMin
	}
	if fetchActive && c.blockSeq == 0 && c.count < c.cfg.WindowSize {
		// Fetch acts once fetchReadyAt passes — unless it would only
		// re-stage a full-LSQ memory op (freed by commit, which is
		// covered above) or poll an exhausted generator to no effect.
		// The exhausted-generator poll does matter when the window is
		// empty: it is what ends the run (see the return in
		// runDetailed), so the stall expiry stays an event in that case.
		canFetch := !c.genDone || c.count == 0
		if c.spanStaged {
			canFetch = c.spanMeta[c.spanPos]&ir.MetaMem == 0 || c.lsqUsed < c.cfg.LSQSize
		}
		if canFetch {
			t := c.fetchReadyAt
			if t < c.now {
				t = c.now
			}
			if t < next {
				next = t
			}
		}
	}
	if c.eng != nil {
		if t := c.eng.NextEventAt(c.now - 1); t < next {
			next = t
		}
	}
	return next
}

// classifyCycle attributes the current cycle to one stats category,
// judged at the commit stage after this cycle's pipeline work ran.
// Precedence: any commit means Busy; an empty window is a front-end
// stall; otherwise the ROB head explains the stall (it is always
// operand-ready, so an unissued head is a structural hazard and an
// issued head is waiting on its own latency).
func (c *Core) classifyCycle(committed int) stats.Category {
	if committed > 0 {
		return stats.CatBusy
	}
	if c.count == 0 {
		return stats.CatFetchStall
	}
	e := &c.rob[c.head]
	if e.issued {
		if e.isMem && e.missL1 {
			return stats.CatLoadMiss
		}
		if e.isMem && e.doneAt > e.issuedAt+1 {
			// A memory op that hit but was delayed past the 1-cycle hit
			// path: TLB, MSHR or bus queuing.
			return stats.CatBusContention
		}
		return stats.CatOther
	}
	if c.count >= c.cfg.WindowSize {
		return stats.CatWindowFull
	}
	return stats.CatOther
}

// srcState resolves one operand: its ready time if the producer has
// issued (known), else the ROB slot whose issue will provide it.  The
// producer is always dispatched before its consumer (program order), so
// a producer at or above headSeq is in the window, and its entry's
// doneAt, fixed at issue, is the ready time.
func (c *Core) srcState(src uint64) (at uint64, known bool, slot int) {
	if src == 0 || src < c.headSeq {
		return 0, true, -1
	}
	slot = (c.head + int(src-c.headSeq)) & (len(c.rob) - 1)
	if e := &c.rob[slot]; e.issued {
		return e.doneAt, true, -1
	}
	return 0, false, slot
}

// subscribe registers a freshly dispatched entry (slot idx) with the
// scheduler: cache its operand-ready time if every producer has
// issued, otherwise sleep until the producers' issue wakes it.
func (c *Core) subscribe(idx int) {
	e := &c.rob[idx]
	t1, k1, s1 := c.srcState(e.d.Src1)
	t2, k2, s2 := c.srcState(e.d.Src2)
	if t2 > t1 {
		t1 = t2
	}
	e.readyAt = t1
	bit := uint64(1) << uint(idx)
	if k1 && k2 {
		e.waitLeft = 0
		if t1 <= c.now {
			c.readyMask |= bit
		} else {
			c.pendMask |= bit
			if t1 < c.pendMin {
				c.pendMin = t1
			}
		}
		return
	}
	n := uint8(0)
	if !k1 {
		c.waiters[s1] |= bit
		n++
	}
	if !k2 && (k1 || s2 != s1) {
		c.waiters[s2] |= bit
		n++
	}
	e.waitLeft = n
}

// wake publishes an issued entry's completion time to its waiters.  A
// woken entry's readyAt is at least the waker's doneAt (>= now+1), so
// it always lands in pendMask.
func (c *Core) wake(idx int, doneAt uint64) {
	w := c.waiters[idx]
	if w == 0 {
		return
	}
	c.waiters[idx] = 0
	for w != 0 {
		wi := bits.TrailingZeros64(w)
		w &= w - 1
		we := &c.rob[wi]
		if doneAt > we.readyAt {
			we.readyAt = doneAt
		}
		if we.waitLeft--; we.waitLeft == 0 {
			c.pendMask |= uint64(1) << uint(wi)
			if we.readyAt < c.pendMin {
				c.pendMin = we.readyAt
			}
		}
	}
}

// olderMask returns the set of ROB slots strictly older in program
// order than slot idx.  Bits at or above len(rob) may be set but never
// match an occupied slot.
func (c *Core) olderMask(idx int) uint64 {
	headMask := uint64(1)<<uint(c.head) - 1
	below := uint64(1)<<uint(idx) - 1
	if idx >= c.head {
		return below &^ headMask
	}
	return ^headMask | below
}

// issue selects and issues up to IssueWidth ready instructions in age
// order, respecting FU counts, memory ports and LSQ ordering rules.  It
// visits only the entries that are operand-ready this cycle
// (readyMask) instead of rescanning the window.  Entries with a cached
// future ready time sit in pendMask and are promoted in bulk only on
// cycles that reach pendMin, so stall-heavy spans touch no entries at
// all.  It returns the number of memory ports consumed, the number of
// instructions issued, and the earliest future cycle at which a
// currently-stalled instruction could issue (^uint64(0) when no such
// bound is known; only meaningful to the cycle-skip logic when nothing
// issued this cycle — any activity disables the skip).
func (c *Core) issue() (memUsed, issued int, nextIssue uint64) {
	if c.pendMin <= c.now {
		m, newMin := c.pendMask, ^uint64(0)
		for m != 0 {
			idx := bits.TrailingZeros64(m)
			m &= m - 1
			e := &c.rob[idx]
			if e.readyAt <= c.now {
				bit := uint64(1) << uint(idx)
				c.pendMask &^= bit
				c.readyMask |= bit
			} else if e.readyAt < newMin {
				newMin = e.readyAt
			}
		}
		c.pendMin = newMin
	}
	// The skip logic's wake-up bound: the earliest future operand-ready
	// time.  Structural-hazard bounds (always now+1 or a cached FU free
	// time) overwrite it below only with earlier-or-equal values.
	nextIssue = c.pendMin
	snap := c.readyMask
	if snap == 0 {
		return
	}
	var aluUsed, fpAddUsed int
	headMask := uint64(1)<<uint(c.head) - 1
	// Age order: slots head..len-1, then the wrapped 0..head-1.
	for _, m := range [2]uint64{snap &^ headMask, snap & headMask} {
		for m != 0 && issued < c.cfg.IssueWidth {
			idx := bits.TrailingZeros64(m)
			m &= m - 1
			e := &c.rob[idx]
			d := &e.d
			switch d.Class {
			case ir.Load:
				// Loads wait for all previous store addresses.
				if c.storeMask != 0 && c.storeMask&c.olderMask(idx) != 0 {
					continue
				}
				if memUsed >= c.cfg.MemPorts {
					nextIssue = c.now + 1
					continue
				}
				memUsed++
				c.issueLoad(idx)
			case ir.Store:
				if memUsed >= c.cfg.MemPorts {
					nextIssue = c.now + 1
					continue
				}
				memUsed++
				c.hier.AccessData(c.now, d.Addr, cache.KStore)
				e.issued = true
				e.doneAt = c.now + 1
			case ir.Prefetch:
				if memUsed >= c.cfg.MemPorts {
					nextIssue = c.now + 1
					continue
				}
				memUsed++
				res := c.hier.AccessData(c.now, d.Addr, cache.KPref)
				e.issued = true
				e.doneAt = c.now + 1 // non-binding: completes on issue
				if c.eng != nil {
					c.eng.OnSWPrefetch(c.now, d, res.Done)
				}
			case ir.IntMult, ir.IntDiv, ir.FpMult, ir.FpDiv:
				fu := c.cfg.FUs[d.Class]
				if free := c.divFree[d.Class]; free > c.now {
					if free < nextIssue {
						nextIssue = free
					}
					continue
				}
				e.issued = true
				e.doneAt = c.now + uint64(fu.Latency)
				if !fu.Pipelined {
					c.divFree[d.Class] = e.doneAt
				}
			case ir.FpAdd:
				if fpAddUsed >= c.cfg.FUs[ir.FpAdd].Count {
					nextIssue = c.now + 1
					continue
				}
				fpAddUsed++
				e.issued = true
				e.doneAt = c.now + uint64(c.cfg.FUs[ir.FpAdd].Latency)
			default: // IntAlu, Nop, Branch, Jump
				if aluUsed >= c.cfg.FUs[ir.IntAlu].Count {
					nextIssue = c.now + 1
					continue
				}
				aluUsed++
				e.issued = true
				e.doneAt = c.now + 1
			}
			if e.issued {
				issued++
				e.issuedAt = c.now
				bit := uint64(1) << uint(idx)
				c.readyMask &^= bit
				if d.Class == ir.Store {
					c.storeMask &^= bit
				}
				c.wake(idx, e.doneAt)
				if d.Seq == c.blockSeq {
					// The mispredicted branch resolved; restart fetch.
					c.fetchReadyAt = e.doneAt + uint64(c.cfg.MispredictPenalty)
					c.blockSeq = 0
				}
			}
		}
		if issued >= c.cfg.IssueWidth {
			break
		}
	}
	return memUsed, issued, nextIssue
}

func (c *Core) issueLoad(idx int) {
	e := &c.rob[idx]
	d := &e.d

	// Store-to-load forwarding: the oldest older store in the window to
	// the same word supplies the value through the 1-cycle bypass.  The
	// store FIFO holds exactly the in-window stores in program order.
	for k := 0; k < c.storeCount; k++ {
		o := &c.storeQ[(c.storeHead+k)&(len(c.storeQ)-1)]
		if o.seq >= d.Seq {
			break
		}
		if o.addr == d.Addr {
			e.issued = true
			e.issuedAt = c.now
			e.doneAt = c.now + 1
			c.finishLoad(e)
			return
		}
	}

	res := c.hier.AccessData(c.now, d.Addr, cache.KLoad)
	e.issued = true
	e.doneAt = res.Done
	if res.MissL1 {
		e.missL1 = true
		c.s.DemandMisses++
		if d.Flags&ir.FLDS != 0 {
			c.s.LDSLoadMiss++
		} else {
			c.s.OtherMiss++
		}
		// Parallelism metric: count other demand misses in flight.
		inFlight := uint64(0)
		kept := c.missDone[:0]
		for _, t := range c.missDone {
			if t > c.now {
				inFlight++
				kept = append(kept, t)
			}
		}
		c.missDone = append(kept, res.Done)
		c.s.MissOverlapSum += inFlight
	}
	if c.eng != nil {
		c.eng.OnLoadIssue(c.now, d)
	}
	c.finishLoad(e)
}

func (c *Core) finishLoad(e *robEntry) {
	if c.eng != nil {
		if e.doneAt < c.loadDoneMin {
			c.loadDoneMin = e.doneAt
		}
		c.loadDone = append(c.loadDone, loadEvent{
			at:    e.doneAt,
			pc:    e.d.PC,
			value: e.d.Value,
			flags: e.d.Flags,
		})
	}
}

// deliverLoads fires every due OnLoadComplete callback, compacting the
// queue in place and refreshing the cached minimum.  Cycles with
// nothing due (the common case, tracked exactly by loadDoneMin) skip
// the scan entirely.
func (c *Core) deliverLoads() int {
	if c.eng == nil || c.loadDoneMin > c.now {
		return 0
	}
	delivered := 0
	kept := c.loadDone[:0]
	kmin := ^uint64(0)
	for i := range c.loadDone {
		ev := &c.loadDone[i]
		if ev.at <= c.now {
			c.scratch = ir.DynInst{
				Class: ir.Load,
				PC:    ev.pc,
				Value: ev.value,
				Flags: ev.flags,
			}
			c.eng.OnLoadComplete(c.now, &c.scratch)
			delivered++
		} else {
			if ev.at < kmin {
				kmin = ev.at
			}
			kept = append(kept, *ev)
		}
	}
	c.loadDone = kept
	c.loadDoneMin = kmin
	return delivered
}

// dispatch inserts d into the window: ROB tail, LSQ and store-FIFO
// occupancy, and scheduler subscription.  The ROB slot
// is written field by field: doneAt/issuedAt/readyAt/waitLeft may stay
// stale because they are only read after issue (gated on e.issued) or
// after subscribe rewrites them, and avoiding the whole-struct
// clear-and-copy is measurably cheaper at four dispatches per cycle.
func (c *Core) dispatch(d *ir.DynInst, isMem, isStore bool) {
	tail := (c.head + c.count) & (len(c.rob) - 1)
	e := &c.rob[tail]
	e.d = *d
	e.dispatchedAt = c.now
	e.issued = false
	e.isMem = isMem
	e.missL1 = false
	c.count++
	c.nextSeq = d.Seq + 1
	if isMem {
		c.lsqUsed++
		if isStore {
			c.storeQ[(c.storeHead+c.storeCount)&(len(c.storeQ)-1)] = storeRef{seq: d.Seq, addr: d.Addr}
			c.storeCount++
			c.storeMask |= uint64(1) << uint(tail)
		}
	}
	c.subscribe(tail)
}

// fetchDispatchSpan is the front end: it brings up to FetchWidth
// instructions into the window, walking whole decoded batches
// (NextBatch) with the generator's pre-resolved per-instruction
// metadata, so the hot path performs no class decode, no fetch-line
// arithmetic and no per-instruction staging.  The metadata encodes the
// memory/store/control classification and the fetch-line crossings of
// a 32-byte-line front end that starts a new line after taken control
// flow (ir.InstMeta).  It returns true when the stream is exhausted.
func (c *Core) fetchDispatchSpan(gen *ir.Gen) bool {
	if c.now < c.fetchReadyAt || c.blockSeq != 0 {
		return false
	}
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.count >= c.cfg.WindowSize {
			return false
		}
		if c.spanPos == len(c.span) && !c.refillSpan(gen) {
			return true
		}
		d := &c.span[c.spanPos]
		m := c.spanMeta[c.spanPos]
		// Instruction cache: fetching a new line may stall.  The latch
		// ensures one access per line per instruction across stall
		// retries.
		if m&ir.MetaNewLine != 0 && !c.spanLineDone {
			ready, miss := c.hier.AccessInst(c.now, d.PC)
			c.spanLineDone = true
			if miss || ready > c.now+1 {
				c.fetchReadyAt = ready
				c.spanStaged = true
				return false
			}
		}
		// LSQ space.
		isMem := m&ir.MetaMem != 0
		if isMem && c.lsqUsed >= c.cfg.LSQSize {
			c.spanStaged = true
			return false
		}
		c.spanLineDone = false
		c.spanStaged = false
		c.spanPos++
		c.dispatch(d, isMem, m&ir.MetaStore != 0)

		// Control flow.
		if m&ir.MetaCtrl != 0 {
			if d.Class == ir.Branch {
				if !c.pred.PredictCond(d.PC, d.Taken, d.Target) {
					// Freeze fetch until this branch resolves.
					c.blockSeq = d.Seq
					return false
				}
				if d.Taken {
					return false // taken branch ends the fetch group
				}
			} else { // Jump
				if d.Flags&ir.FReturn != 0 {
					return false // perfect return prediction, group ends
				}
				if !c.pred.PredictJump(d.PC, d.Target) {
					c.fetchReadyAt = c.now + 1 + uint64(c.cfg.BTBMissPenalty)
				}
				return false
			}
		}
	}
	return false
}

// refillSpan replaces the used-up span with the generator's next batch
// and reports false when the stream is exhausted.  Callers refill only
// when they need the instruction after the span's last, which bounds
// the memory-image run-ahead the prefetch engines observe, in detailed
// and fast-forwarded spans alike.
func (c *Core) refillSpan(gen *ir.Gen) bool {
	ins, meta := gen.NextBatch()
	c.span, c.spanMeta, c.spanPos = ins, meta, 0
	return ins != nil
}
