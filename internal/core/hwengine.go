package core

import (
	"repro/internal/cache"
	"repro/internal/dbp"
	"repro/internal/heap"
	"repro/internal/ir"
)

// HWConfig sizes the hardware JPP mechanism (Table 2: 32-entry fully
// associative JQT with 8-address queues, one JPR access per cycle).
type HWConfig struct {
	JQTEntries int
	Interval   int
	// AdaptiveInterval enables the paper's future-work refinement
	// (section 6): the JQT interval adjusts itself from observed
	// prefetch timeliness — widened when prefetched lines arrive after
	// their demand, narrowed when jump-pointer targets go stale.
	AdaptiveInterval bool
	// OnChipTable, when positive, stores jump-pointers in an on-chip
	// table of that many entries instead of allocator padding.  The
	// paper's §3.3 discusses (and dismisses) this alternative; the
	// ablation benchmarks exercise it.
	OnChipTable int
}

// DefaultHWConfig returns Table 2's hardware JPP parameters.
func DefaultHWConfig() HWConfig {
	return HWConfig{JQTEntries: 32, Interval: DefaultInterval}
}

// HWStats counts hardware JPP activity.
type HWStats struct {
	RecurrentPCs int
	JPStores     uint64
	JPLaunches   uint64
	StaleTargets uint64
}

// HWEngine is the hardware-only JPP implementation: the DBP machinery
// extended with jump-pointer creation (JQT) and retrieval (JPR).  It
// implements chain jumping — jump-pointer prefetches for recurrent
// "backbone" loads, chained prefetches for "rib" loads — degenerating
// naturally to queue jumping on backbone-only structures (paper §3.3).
type HWEngine struct {
	*dbp.Engine

	cfg   HWConfig
	hier  *cache.Hierarchy
	alloc *heap.Allocator

	jqt       *JQT
	recurrent map[uint32]bool
	// onChip holds jump-pointers when OnChipTable is configured;
	// keyed by home-node address with FIFO-ish capacity eviction.
	onChip     map[uint32]uint32
	onChipRing []uint32
	onChipPos  int

	// lastJPR enforces the single JPR access per cycle.
	lastJPR uint64
	jprUsed bool

	// Adaptive-interval observation state.
	adaptCommits  uint64
	lastWaitSum   uint64
	lastPBHits    uint64
	lastStale     uint64
	lastLaunches  uint64
	intervalMoves int

	s HWStats
}

// NewHWEngine builds the hardware JPP engine on top of a DBP core.
func NewHWEngine(dcfg dbp.Config, hcfg HWConfig, hier *cache.Hierarchy, alloc *heap.Allocator) *HWEngine {
	h := &HWEngine{
		Engine:    dbp.NewEngine(dcfg, hier, alloc),
		cfg:       hcfg,
		hier:      hier,
		alloc:     alloc,
		jqt:       NewJQT(hcfg.JQTEntries, hcfg.Interval),
		recurrent: make(map[uint32]bool),
	}
	if hcfg.OnChipTable > 0 {
		h.onChip = make(map[uint32]uint32, hcfg.OnChipTable)
		h.onChipRing = make([]uint32, hcfg.OnChipTable)
	}
	return h
}

// HWStats returns hardware-specific counters.
func (h *HWEngine) HWStats() HWStats {
	s := h.s
	s.RecurrentPCs = len(h.recurrent)
	return s
}

// IsRecurrent reports whether the load at pc has been identified as a
// recurrent ("backbone") load.
func (h *HWEngine) IsRecurrent(pc uint32) bool { return h.recurrent[pc] }

// storeJP installs a jump-pointer home -> target.
func (h *HWEngine) storeJP(now uint64, home, target uint32) {
	if h.onChip != nil {
		if _, exists := h.onChip[home]; !exists {
			old := h.onChipRing[h.onChipPos]
			if old != 0 {
				delete(h.onChip, old)
			}
			h.onChipRing[h.onChipPos] = home
			h.onChipPos = (h.onChipPos + 1) % len(h.onChipRing)
		}
		h.onChip[home] = target
		h.s.JPStores++
		return
	}
	pad, ok := h.alloc.PaddingAddr(home)
	if !ok {
		return
	}
	// Best effort: jump-pointers are hints, so a store to a home node
	// whose line has already left the L1 is dropped rather than paying
	// a write-allocate fetch of the whole line.
	if !h.hier.PresentL1(pad) {
		return
	}
	h.Image().WriteWord(pad, target)
	// The annotated load computed the padding address alongside its own
	// effective address (section 3.3), so the store merges into the
	// resident block for free; its cost is the line's eventual
	// writeback.
	h.hier.DirtyL1(pad)
	h.s.JPStores++
}

// loadJP retrieves the jump-pointer stored at home, if any.  With
// padding storage the word shares the home node's cache block (the
// paper's locality argument), so no extra access is charged.
func (h *HWEngine) loadJP(home uint32) (uint32, bool) {
	if h.onChip != nil {
		t, ok := h.onChip[home]
		return t, ok
	}
	pad, ok := h.alloc.PaddingAddr(home)
	if !ok {
		return 0, false
	}
	t := h.Image().ReadWord(pad)
	return t, t != 0
}

// adaptPeriod is how many committed loads pass between interval
// adaptation decisions.
const adaptPeriod = 8192

// adapt implements the future-work interval controller: when useful
// prefetches still arrive late, the interval doubles (more latency to
// hide than the current distance covers); when jump-pointer targets go
// stale faster than they are used, it halves.
func (h *HWEngine) adapt() {
	st := h.hier.Stats()
	dWait := st.PBHitWaitSum - h.lastWaitSum
	dHits := st.PBHits - h.lastPBHits
	dStale := h.s.StaleTargets - h.lastStale
	dLaunch := h.s.JPLaunches - h.lastLaunches
	h.lastWaitSum, h.lastPBHits = st.PBHitWaitSum, st.PBHits
	h.lastStale, h.lastLaunches = h.s.StaleTargets, h.s.JPLaunches

	iv := h.jqt.Interval()
	switch {
	case dHits > 64 && dWait/(dHits+1) > 8 && iv*2 <= MaxInterval:
		h.jqt.SetInterval(iv * 2)
		h.intervalMoves++
	case dLaunch > 64 && dStale*4 > dLaunch && iv > 2:
		h.jqt.SetInterval(iv / 2)
		h.intervalMoves++
	}
}

// IntervalMoves reports how many adaptation steps have fired.
func (h *HWEngine) IntervalMoves() int { return h.intervalMoves }

// CurrentInterval reports the (possibly adapted) JQT interval.
func (h *HWEngine) CurrentInterval() int { return h.jqt.Interval() }

// OnCommit trains the DBP predictor, detects recurrent loads and runs
// jump-pointer creation through the JQT.
func (h *HWEngine) OnCommit(now uint64, d *ir.DynInst) {
	if d.Class != ir.Load {
		return
	}
	if h.cfg.AdaptiveInterval {
		h.adaptCommits++
		if h.adaptCommits%adaptPeriod == 0 {
			h.adapt()
		}
	}
	producer, trained := h.TrainLoad(d)
	if trained {
		// A load fed by its own previous instance (l = l->next), or two
		// loads feeding each other (tree child loads), are recurrent.
		if producer == d.PC {
			h.recurrent[d.PC] = true
		} else if h.DP().HasEdge(d.PC, producer) {
			h.recurrent[d.PC] = true
			h.recurrent[producer] = true
		}
	}
	if h.recurrent[d.PC] && h.Heap().Contains(d.BaseValue) {
		if home, ok := h.jqt.Visit(d.PC, d.BaseValue); ok && h.Heap().Contains(home) {
			h.storeJP(now, home, d.BaseValue)
		}
	}
}

// NextEventAt delegates to the embedded DBP engine's queues.  The
// JQT/JPR machinery is purely reactive (it runs inside OnCommit and
// OnLoadIssue), so it never generates a timed event of its own; the
// explicit delegation records that this was considered, not forgotten.
func (h *HWEngine) NextEventAt(now uint64) uint64 {
	return h.Engine.NextEventAt(now)
}

// OnLoadIssue performs jump-pointer retrieval: when a recurrent load
// issues, the jump-pointer residing at its input node is read into the
// JPR and launches a prefetch of the target node, which the DBP
// machinery then expands with chained rib prefetches.
func (h *HWEngine) OnLoadIssue(now uint64, d *ir.DynInst) {
	if !h.recurrent[d.PC] || !h.Heap().Contains(d.BaseValue) {
		return
	}
	// One JPR access per cycle (Table 2).
	if h.jprUsed && h.lastJPR == now {
		return
	}
	target, ok := h.loadJP(d.BaseValue)
	if !ok {
		return
	}
	h.lastJPR, h.jprUsed = now, true
	if !h.Heap().Contains(target) {
		h.s.StaleTargets++
		return
	}
	h.s.JPLaunches++
	// Prefetch the target node block, and spawn speculative instances
	// of this load's known consumers with the target as their base —
	// the JPR value acting as the speculative input (Figure 3(c)).
	h.EnqueuePrefetch(target, d.PC, 0)
	h.ChaseFrom(d.PC, target, 0)
}
