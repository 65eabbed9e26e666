// Package stats is the simulator's cycle-accounting and
// prefetch-effectiveness layer.
//
// It answers the two questions the paper's evaluation hinges on: where
// do the cycles go (Fig. 5/6 decompose speedups into memory-stall
// reduction), and what did each prefetch achieve (coverage, accuracy
// and timeliness are the standard figures of merit for prefetcher
// studies).  The core timing loop attributes every simulated cycle to
// exactly one Category; the memory hierarchy tracks every prefetch
// request to exactly one Outcome.  Two hard invariants follow and are
// enforced by Snapshot.Validate:
//
//	sum(cycle categories)   == Cycles
//	sum(prefetch outcomes)  == prefetches issued
//
// The package is a leaf: it imports nothing from the rest of the
// repository so every layer (cpu, cache, harness, CLIs) can use it.
package stats

import (
	"encoding/json"
	"fmt"
)

// SchemaVersion identifies the JSON layout of Snapshot.  Bump it on any
// incompatible change so downstream consumers (jppreport, BENCH_jpp.json
// trend tooling) can detect mismatches.
//
// Version history:
//
//	1 — initial layout
//	2 — added the "replay" section (front-end block-replay cache)
const SchemaVersion = 2

// Category classifies what one simulated cycle was spent on, judged at
// the commit stage (the retirement-centric attribution used by the
// gem5/top-down methodology): a cycle is Busy if anything committed,
// otherwise it is charged to whatever stalled the ROB head.
type Category uint8

// Cycle categories.  Precedence when several conditions hold follows
// the declaration order: committing beats every stall, an empty window
// is a front-end problem regardless of why, and a head load miss beats
// the generic bus/window reasons.
const (
	// CatBusy: at least one instruction committed this cycle.
	CatBusy Category = iota
	// CatFetchStall: nothing committed and the window is empty — the
	// front end (I-cache miss, misprediction freeze, BTB bubble) starved
	// the core.
	CatFetchStall
	// CatWindowFull: the head has not issued and the window is full — a
	// structural back-pressure stall.
	CatWindowFull
	// CatLoadMiss: the head is an issued load that missed the L1 level
	// and is waiting for data — the paper's memory-stall cycles.
	CatLoadMiss
	// CatBusContention: the head is an issued memory op that hit but is
	// delayed beyond the hit latency (bus/MSHR/TLB queuing).
	CatBusContention
	// CatOther: everything else (multi-cycle FU latencies, issue-width
	// or port contention with a non-full window).
	CatOther

	// NumCategories is the number of cycle categories.
	NumCategories = int(CatOther) + 1
)

var categoryNames = [NumCategories]string{
	"busy", "fetch_stall", "window_full", "load_miss", "bus_contention", "other",
}

// String returns the category's snake_case JSON name.
func (c Category) String() string {
	if int(c) < NumCategories {
		return categoryNames[c]
	}
	return fmt.Sprintf("category(%d)", uint8(c))
}

// CycleBreakdown attributes a run's cycles across the categories.  The
// named fields (rather than an array) fix the JSON schema.
type CycleBreakdown struct {
	Busy          uint64 `json:"busy"`
	FetchStall    uint64 `json:"fetch_stall"`
	WindowFull    uint64 `json:"window_full"`
	LoadMiss      uint64 `json:"load_miss"`
	BusContention uint64 `json:"bus_contention"`
	Other         uint64 `json:"other"`
}

// Account charges one cycle to category c.
func (b *CycleBreakdown) Account(c Category) {
	b.AccountN(c, 1)
}

// AccountN charges n cycles to category c at once.  The event-driven
// core uses it to attribute a whole quiescent span in one call; the
// result is identical to n individual Account calls.
func (b *CycleBreakdown) AccountN(c Category, n uint64) {
	switch c {
	case CatBusy:
		b.Busy += n
	case CatFetchStall:
		b.FetchStall += n
	case CatWindowFull:
		b.WindowFull += n
	case CatLoadMiss:
		b.LoadMiss += n
	case CatBusContention:
		b.BusContention += n
	default:
		b.Other += n
	}
}

// ByCategory returns the count for category c.
func (b CycleBreakdown) ByCategory(c Category) uint64 {
	switch c {
	case CatBusy:
		return b.Busy
	case CatFetchStall:
		return b.FetchStall
	case CatWindowFull:
		return b.WindowFull
	case CatLoadMiss:
		return b.LoadMiss
	case CatBusContention:
		return b.BusContention
	default:
		return b.Other
	}
}

// Total returns the sum over all categories; it must equal the run's
// cycle count.
func (b CycleBreakdown) Total() uint64 {
	return b.Busy + b.FetchStall + b.WindowFull + b.LoadMiss + b.BusContention + b.Other
}

// Share returns category c's fraction of the total, or 0 for an empty
// breakdown.
func (b CycleBreakdown) Share(c Category) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.ByCategory(c)) / float64(t)
}

// Outcome classifies what became of one prefetch request.
type Outcome uint8

// Prefetch outcomes.
const (
	// OutUsefulTimely: a demand access hit the prefetched line after its
	// fill completed — the full miss latency was hidden.
	OutUsefulTimely Outcome = iota
	// OutUsefulLate: a demand access hit the prefetched line while the
	// fill was still in flight — latency partially hidden.
	OutUsefulLate
	// OutUseless: the request was dropped because the line was already
	// resident or already being fetched; it did no independent work.
	OutUseless
	// OutEvictedUnused: the line was fetched but evicted (or the run
	// ended) before any demand access touched it — pure wasted traffic.
	OutEvictedUnused

	// NumOutcomes is the number of prefetch outcomes.
	NumOutcomes = int(OutEvictedUnused) + 1
)

var outcomeNames = [NumOutcomes]string{
	"useful_timely", "useful_late", "useless", "evicted_unused",
}

// String returns the outcome's snake_case JSON name.
func (o Outcome) String() string {
	if int(o) < NumOutcomes {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// PrefetchStats counts prefetch requests by outcome, plus the demand
// misses no prefetch covered (the coverage denominator's other half).
type PrefetchStats struct {
	Issued        uint64 `json:"issued"`
	UsefulTimely  uint64 `json:"useful_timely"`
	UsefulLate    uint64 `json:"useful_late"`
	Useless       uint64 `json:"useless"`
	EvictedUnused uint64 `json:"evicted_unused"`

	// UncoveredMisses counts demand accesses that missed the L1 level
	// without a prefetch in flight or resident for their line.
	UncoveredMisses uint64 `json:"uncovered_misses"`
}

// add charges one prefetch to outcome o.
func (p *PrefetchStats) add(o Outcome) {
	switch o {
	case OutUsefulTimely:
		p.UsefulTimely++
	case OutUsefulLate:
		p.UsefulLate++
	case OutUseless:
		p.Useless++
	default:
		p.EvictedUnused++
	}
}

// Useful returns the prefetches a demand access consumed.
func (p PrefetchStats) Useful() uint64 { return p.UsefulTimely + p.UsefulLate }

// OutcomeTotal sums the outcome counts; it must equal Issued once the
// run is finalized.
func (p PrefetchStats) OutcomeTotal() uint64 {
	return p.UsefulTimely + p.UsefulLate + p.Useless + p.EvictedUnused
}

// Coverage is the fraction of would-be demand misses a prefetch served:
// useful / (useful + uncovered misses).  In [0, 1] by construction.
func (p PrefetchStats) Coverage() float64 {
	den := p.Useful() + p.UncoveredMisses
	if den == 0 {
		return 0
	}
	return float64(p.Useful()) / float64(den)
}

// Accuracy is the fraction of issued prefetches that proved useful.
func (p PrefetchStats) Accuracy() float64 {
	if p.Issued == 0 {
		return 0
	}
	return float64(p.Useful()) / float64(p.Issued)
}

// Timeliness is the fraction of useful prefetches that arrived in full
// before the demand access.
func (p PrefetchStats) Timeliness() float64 {
	u := p.Useful()
	if u == 0 {
		return 0
	}
	return float64(p.UsefulTimely) / float64(u)
}

// PrefetchMetrics are the derived figures of merit, stored explicitly
// in the JSON so consumers need not recompute them.
type PrefetchMetrics struct {
	Coverage   float64 `json:"coverage"`
	Accuracy   float64 `json:"accuracy"`
	Timeliness float64 `json:"timeliness"`
}

// Metrics derives the coverage/accuracy/timeliness triple.
func (p PrefetchStats) Metrics() PrefetchMetrics {
	return PrefetchMetrics{
		Coverage:   p.Coverage(),
		Accuracy:   p.Accuracy(),
		Timeliness: p.Timeliness(),
	}
}

// PrefetchReport is the prefetch section of a Snapshot: the tracked
// outcome counters plus per-source issue counts and derived metrics.
type PrefetchReport struct {
	PrefetchStats

	// SWIssued counts software prefetch instructions committed by the
	// core; EngineIssued counts requests the DBP/hardware engine sent to
	// the cache.  For a complete (untruncated, non-perfect-memory) run
	// SWIssued + EngineIssued == Issued.
	SWIssued     uint64 `json:"sw_issued"`
	EngineIssued uint64 `json:"engine_issued"`

	Derived PrefetchMetrics `json:"metrics"`
}

// CacheReport is the memory-hierarchy section of a Snapshot.
type CacheReport struct {
	L1DAccesses uint64 `json:"l1d_accesses"`
	L1DMisses   uint64 `json:"l1d_misses"`
	L2Accesses  uint64 `json:"l2_accesses"`
	L2Misses    uint64 `json:"l2_misses"`
	PBHits      uint64 `json:"pb_hits"`
	PBFills     uint64 `json:"pb_fills"`
	L1L2Bytes   uint64 `json:"l1l2_bytes"`
	MemBytes    uint64 `json:"mem_bytes"`
}

// SamplingReport is the sampled-simulation section of a Snapshot: what
// the detailed intervals measured and how tight the extrapolation is.
type SamplingReport struct {
	Intervals      int    `json:"intervals"`
	MeasuredInsts  uint64 `json:"measured_instructions"`
	MeasuredCycles uint64 `json:"measured_cycles"`
	// FFInsts counts the functionally fast-forwarded instructions whose
	// cycle cost was extrapolated from the measured CPI.
	FFInsts   uint64  `json:"fast_forwarded_instructions"`
	CPIMean   float64 `json:"cpi_mean"`
	CPIStdErr float64 `json:"cpi_stderr"`
	// CyclesLo/CyclesHi bound the extrapolated cycle count at 95%
	// confidence.
	CyclesLo uint64 `json:"cycles_lo"`
	CyclesHi uint64 `json:"cycles_hi"`
}

// ReplayReport is the front-end block-replay section of a Snapshot: how
// well the decoded basic-block replay cache (internal/ir) captured the
// workload's emission behaviour.  Replay is a pure simulator-performance
// mechanism — it never changes architectural results — so this section
// is observability only.  It is absent when replay is disabled.
type ReplayReport struct {
	// BlocksCaptured counts decoded basic blocks recorded in the block
	// table; ReplayedInsts counts instructions emitted through the
	// verified replay fast path; ReplayAborts counts mid-block template
	// mismatches (data-dependent emission paths).
	BlocksCaptured uint64 `json:"blocks_captured"`
	ReplayedInsts  uint64 `json:"replayed_instructions"`
	ReplayAborts   uint64 `json:"replay_aborts"`
	// HitRate is ReplayedInsts over all emitted instructions.
	HitRate float64 `json:"hit_rate"`
}

// Snapshot is the versioned, self-describing statistics record one
// simulation emits (jppsim -stats-json, harness.Result.Stats,
// BENCH_jpp.json entries).
type Snapshot struct {
	Version int    `json:"version"`
	Bench   string `json:"bench"`
	Scheme  string `json:"scheme"`
	Idiom   string `json:"idiom"`
	// Engine names the attached prefetch engine from the registry
	// ("" when the run attached none — software-only and baseline
	// schemes, and every perfect-memory run).
	Engine string `json:"engine,omitempty"`
	// PerfectMem marks a run under idealized single-cycle data memory
	// (the compute pass of the decomposition method).  Such runs bypass
	// the prefetch tracker, so the per-source issue identity does not
	// apply to them.
	PerfectMem bool   `json:"perfect_mem,omitempty"`
	Size       string `json:"size"`

	Cycles    uint64  `json:"cycles"`
	Insts     uint64  `json:"instructions"`
	IPC       float64 `json:"ipc"`
	Truncated bool    `json:"truncated,omitempty"`

	// Sampled marks a sampled-simulation run: Cycles is an
	// extrapolation (see Sampling for error bars), cycle attribution
	// and prefetch counters cover only the detailed spans, and the
	// accounting identities below are gated accordingly.  Sampled
	// snapshots are approximations and must never be compared against
	// or admitted alongside full-fidelity results.
	Sampled  bool            `json:"sampled,omitempty"`
	Sampling *SamplingReport `json:"sampling,omitempty"`

	CyclesByCategory CycleBreakdown `json:"cycles_by_category"`
	Prefetch         PrefetchReport `json:"prefetch"`
	Cache            CacheReport    `json:"cache"`
	// Replay reports the front-end block-replay cache's behaviour; nil
	// when replay was disabled for the run.
	Replay *ReplayReport `json:"replay,omitempty"`
}

// Validate checks the snapshot's internal invariants: the schema
// version, the two accounting identities, metric consistency with the
// raw counters, and metric ranges.
func (s Snapshot) Validate() error {
	if s.Version != SchemaVersion {
		return fmt.Errorf("stats: snapshot version %d, want %d", s.Version, SchemaVersion)
	}
	// A sampled run's attribution covers only the detailed spans while
	// Cycles includes the extrapolated fast-forward share, so the
	// equality holds only for full-fidelity runs.
	if !s.Sampled {
		if got := s.CyclesByCategory.Total(); got != s.Cycles {
			return fmt.Errorf("stats: cycle categories sum to %d, want Cycles=%d", got, s.Cycles)
		}
	} else {
		if s.Sampling == nil {
			return fmt.Errorf("stats: sampled snapshot without a sampling report")
		}
		if got := s.CyclesByCategory.Total(); got > s.Cycles {
			return fmt.Errorf("stats: sampled cycle categories sum to %d, beyond Cycles=%d", got, s.Cycles)
		}
		if s.Sampling.CyclesLo > s.Cycles || s.Sampling.CyclesHi < s.Cycles {
			return fmt.Errorf("stats: sampled confidence interval [%d, %d] excludes Cycles=%d",
				s.Sampling.CyclesLo, s.Sampling.CyclesHi, s.Cycles)
		}
	}
	if got := s.Prefetch.OutcomeTotal(); got != s.Prefetch.Issued {
		return fmt.Errorf("stats: prefetch outcomes sum to %d, want Issued=%d", got, s.Prefetch.Issued)
	}
	// Per-source decomposition of the tracker's choke-point count: every
	// tracked prefetch was either a committed software prefetch or an
	// engine cache request.  Truncated runs commit fewer software
	// prefetches than they issue to the cache, and perfect-memory runs
	// bypass the tracker entirely, so the identity is gated to complete
	// realistic runs.  Sampled runs commit software prefetches during
	// fast-forward that never reach the hierarchy, breaking it too.
	if !s.Truncated && !s.PerfectMem && !s.Sampled {
		if got := s.Prefetch.SWIssued + s.Prefetch.EngineIssued; got != s.Prefetch.Issued {
			return fmt.Errorf("stats: per-source issues sum to %d (sw %d + engine %d), want Issued=%d",
				got, s.Prefetch.SWIssued, s.Prefetch.EngineIssued, s.Prefetch.Issued)
		}
	}
	if want := s.Prefetch.PrefetchStats.Metrics(); s.Prefetch.Derived != want {
		return fmt.Errorf("stats: derived metrics %+v inconsistent with counters (want %+v)",
			s.Prefetch.Derived, want)
	}
	for _, m := range []struct {
		name string
		v    float64
	}{
		{"coverage", s.Prefetch.Derived.Coverage},
		{"accuracy", s.Prefetch.Derived.Accuracy},
		{"timeliness", s.Prefetch.Derived.Timeliness},
	} {
		if m.v < 0 || m.v > 1 {
			return fmt.Errorf("stats: %s = %g out of [0,1]", m.name, m.v)
		}
	}
	if r := s.Replay; r != nil {
		if r.HitRate < 0 || r.HitRate > 1 {
			return fmt.Errorf("stats: replay hit rate %g out of [0,1]", r.HitRate)
		}
		if r.ReplayedInsts > 0 && r.BlocksCaptured == 0 {
			return fmt.Errorf("stats: %d replayed instructions with no captured blocks", r.ReplayedInsts)
		}
	}
	if s.Cycles > 0 {
		want := float64(s.Insts) / float64(s.Cycles)
		if diff := s.IPC - want; diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("stats: ipc %g inconsistent with insts/cycles = %g", s.IPC, want)
		}
	}
	return nil
}

// ParseSnapshots decodes data as a single Snapshot object, an array of
// them, or a wrapper object with a "snapshots" array (all three shapes
// appear in the wild: jppsim emits one object, BENCH_jpp.json wraps a
// list alongside its speedup summary).
func ParseSnapshots(data []byte) ([]Snapshot, error) {
	var list []Snapshot
	if err := json.Unmarshal(data, &list); err == nil {
		return list, nil
	}
	var wrapped struct {
		Snapshots []Snapshot `json:"snapshots"`
	}
	if err := json.Unmarshal(data, &wrapped); err == nil && len(wrapped.Snapshots) > 0 {
		return wrapped.Snapshots, nil
	}
	var one Snapshot
	if err := json.Unmarshal(data, &one); err != nil {
		return nil, fmt.Errorf("stats: data is neither a snapshot nor a snapshot array: %w", err)
	}
	return []Snapshot{one}, nil
}
