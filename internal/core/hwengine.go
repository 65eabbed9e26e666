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

	hier  *cache.Hierarchy
	alloc *heap.Allocator

	jqt       *JQT
	recurrent map[uint32]bool

	// lastJPR enforces the single JPR access per cycle.
	lastJPR uint64
	jprUsed bool

	s HWStats
}

// NewHWEngine builds the hardware JPP engine on top of a DBP core.
func NewHWEngine(dcfg dbp.Config, hcfg HWConfig, hier *cache.Hierarchy, alloc *heap.Allocator) *HWEngine {
	return &HWEngine{
		Engine:    dbp.NewEngine(dcfg, hier, alloc),
		hier:      hier,
		alloc:     alloc,
		jqt:       NewJQT(hcfg.JQTEntries, hcfg.Interval),
		recurrent: make(map[uint32]bool),
	}
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

// storeJP installs a jump-pointer home -> target in the home node's
// allocator padding (section 3.3).
func (h *HWEngine) storeJP(home, target uint32) {
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

// loadJP retrieves the jump-pointer stored at home, if any.  The
// padding word shares the home node's cache block (the paper's locality
// argument), so no extra access is charged.
func (h *HWEngine) loadJP(home uint32) (uint32, bool) {
	pad, ok := h.alloc.PaddingAddr(home)
	if !ok {
		return 0, false
	}
	t := h.Image().ReadWord(pad)
	return t, t != 0
}

// OnCommit trains the DBP predictor, detects recurrent loads and runs
// jump-pointer creation through the JQT.
func (h *HWEngine) OnCommit(now uint64, d *ir.DynInst) {
	if d.Class != ir.Load {
		return
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
			h.storeJP(home, d.BaseValue)
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
