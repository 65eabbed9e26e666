package ir

// Decoded basic-block replay cache.
//
// A kernel emits the same loop bodies over and over: the static side of
// every DynInst (PC, class, flags, branch target) is identical on every
// dynamic pass over a PC region, and only the dynamic slots (addresses,
// values, sequence numbers, branch outcomes) change.  The first dynamic
// pass over a region *captures* the decoded group — a maximal run of
// emissions ending at a control-flow instruction, cut at maxBlockLen
// for control-free runs — into a per-kernel block table keyed by entry
// PC.  Every later pass *replays* the template: the emission fast path
// verifies the static fields against the template, reuses the
// pre-decoded per-instruction dispatch metadata, and defers
// instruction-mix accounting to a single per-block delta, while the
// kernel's own emission calls keep filling in the dynamic slots.
//
// Replay never synthesizes instructions.  The emitted stream is always
// exactly what the kernel's calls produce; a template mismatch (a
// data-dependent emission path) aborts the block — the already
// fast-pathed prefix is re-accounted from the template — and emission
// falls back to the bypass path until the next control-flow boundary
// realigns block capture.  The stream, accounting totals, and metadata
// are therefore bit-identical with replay on or off.
//
// Alongside the instruction batch, every generator hands the core one
// InstMeta byte per instruction with the dispatch-relevant decode
// pre-resolved (memory/store/control classification and the exact
// fetch-line-crossing bit), which is what lets internal/cpu dispatch
// whole blocks without per-instruction decode.  Replay reuses each
// template's bytes; without it, liveMeta decodes every instruction.

// InstMeta is one byte of pre-decoded dispatch metadata accompanying
// each DynInst.
type InstMeta uint8

const (
	// MetaMem marks Load/Store/Prefetch instructions (LSQ occupants).
	MetaMem InstMeta = 1 << iota
	// MetaStore marks Store instructions (store-queue occupants).
	MetaStore
	// MetaCtrl marks Branch/Jump instructions (fetch redirect points).
	MetaCtrl
	// MetaNewLine marks an instruction whose PC starts a fetch line the
	// front end has not yet requested.  It is exact, not a hint: the
	// generator tracks the fetch-line state of a front end with 32-byte
	// lines (reset on taken control flow, else the line of the previous
	// instruction), so a core consuming metadata needs no fetch-line
	// bookkeeping of its own.
	MetaNewLine
)

// maxBlockLen cuts control-free emission runs so templates stay small
// and a straight-line prologue cannot produce an unbounded block.
const maxBlockLen = 64

// maxBlockAborts evicts a template that keeps mismatching (a block
// whose first-captured variant is not the dominant emission path), so
// the dominant variant can be recaptured at the next entry.
const maxBlockAborts = 64

// instTmpl is the captured static side of one instruction.
type instTmpl struct {
	// key packs PC, class, and final flags for one-compare verification.
	key    uint64
	target uint32
	meta   InstMeta
	class  Class
	flags  Flag
}

// tmplKey packs the statically-verifiable fields of an instruction.
func tmplKey(pc uint32, cl Class, fl Flag) uint64 {
	return uint64(pc) | uint64(cl)<<32 | uint64(fl)<<40
}

// classDelta is one non-zero entry of a block's instruction-mix delta.
type classDelta struct {
	cl Class
	n  uint32
}

// block is one captured basic block.
type block struct {
	entry uint32
	ins   []instTmpl
	// Per-block accounting deltas, applied once when a replay of the
	// whole block completes (the fast path skips per-inst accounting).
	deltas                 []classDelta
	orig, ovhd, lds, other uint32
	aborts                 uint32
}

// replayState is the capture/replay state machine threaded through
// Asm.finish.  It lives by value inside Asm.
type replayState struct {
	// table is the per-kernel block table keyed by entry PC, stored as
	// a dense slice indexed by (PC-CodeBase)/4 (all kernel PCs come
	// from SitePC, so sites are small and dense).
	table []*block
	// tmpl/pos: the template being replayed and the next index in it.
	tmpl *block
	pos  int
	// cap: the block being captured (nil when not capturing).
	cap *block
	// atStart is true when the next emission begins a new block.
	atStart bool
	// simLine is the front end's fetch-line state over the emitted
	// stream (MetaNewLine): 0 after taken control flow, else
	// line(PC)|1 of the previous instruction.
	simLine uint32

	blocksCaptured uint64
	replayedInsts  uint64
	replayAborts   uint64
}

// lookup returns the captured block entered at pc, or nil.
func (r *replayState) lookup(pc uint32) *block {
	idx := int(pc-CodeBase) >> 2
	if idx < 0 || idx >= len(r.table) {
		return nil
	}
	return r.table[idx]
}

// insert stores b in the block table, growing it on demand.
func (r *replayState) insert(b *block) {
	idx := int(b.entry-CodeBase) >> 2
	if idx < 0 {
		return
	}
	for idx >= len(r.table) {
		r.table = append(r.table, make([]*block, idx+1-len(r.table))...)
	}
	r.table[idx] = b
}

// remove evicts the block entered at pc.
func (r *replayState) remove(pc uint32) {
	idx := int(pc-CodeBase) >> 2
	if idx >= 0 && idx < len(r.table) {
		r.table[idx] = nil
	}
}

// liveMeta computes the dispatch metadata for d against the current
// fetch-line state and advances that state.  It serves every
// instruction when replay is disabled and the capture/bypass slow path
// otherwise; the replay fast path reuses the template's byte instead.
func (a *Asm) liveMeta(d *DynInst) InstMeta {
	var m InstMeta
	switch d.Class {
	case Load, Prefetch:
		m = MetaMem
	case Store:
		m = MetaMem | MetaStore
	case Branch, Jump:
		m = MetaCtrl
	}
	line := d.PC>>5<<5 | 1
	if line != a.rp.simLine {
		m |= MetaNewLine
	}
	if d.Class == Jump || (d.Class == Branch && d.Taken) {
		a.rp.simLine = 0
	} else {
		a.rp.simLine = line
	}
	return m
}

// finishTracked is the replay-enabled finish: it maintains the block
// table, verifies replayed instructions against their template, and
// produces the per-instruction dispatch metadata.
func (a *Asm) finishTracked(d *DynInst) {
	r := &a.rp
	if r.tmpl == nil && r.atStart {
		r.atStart = false
		if b := r.lookup(d.PC); b != nil {
			r.tmpl, r.pos = b, 0
		} else {
			r.cap = &block{entry: d.PC}
		}
	}
	if t := r.tmpl; t != nil {
		e := &t.ins[r.pos]
		fl := d.Flags
		if a.overhead || d.Class == Prefetch {
			fl |= FOverhead
		}
		if e.key == tmplKey(d.PC, d.Class, fl) && e.target == d.Target {
			// Replay fast path: statics verified, reuse the decoded
			// metadata and defer accounting to the block delta.
			d.Flags = fl
			m := e.meta
			if r.pos == 0 {
				// The entry instruction's line-crossing bit depends on
				// the predecessor block, so it is resolved dynamically.
				m &^= MetaNewLine
				if d.PC>>5<<5|1 != r.simLine {
					m |= MetaNewLine
				}
			}
			a.meta = append(a.meta, m)
			r.pos++
			if r.pos == len(t.ins) {
				a.closeReplay(t, d)
			}
			if len(a.batch) == BatchSize {
				a.sendBatch()
			}
			return
		}
		a.abortReplay(t)
	}

	// Slow path: capture or bypass.  Full per-inst accounting, live
	// metadata.
	a.account(d)
	m := a.liveMeta(d)
	a.meta = append(a.meta, m)
	if b := r.cap; b != nil {
		b.ins = append(b.ins, instTmpl{
			key:    tmplKey(d.PC, d.Class, d.Flags),
			target: d.Target,
			meta:   m,
			class:  d.Class,
			flags:  d.Flags,
		})
		if d.IsCtrl() || len(b.ins) == maxBlockLen {
			a.closeCapture(b)
		}
	} else if d.IsCtrl() {
		// Bypass (post-abort) realigns at the next control boundary.
		r.atStart = true
	}
	if len(a.batch) == BatchSize {
		a.sendBatch()
	}
}

// closeReplay finishes a fully-replayed block: applies the block's
// accounting delta, advances the fetch-line state past the final
// instruction d, and re-arms block-start detection.
func (a *Asm) closeReplay(t *block, d *DynInst) {
	for _, cd := range t.deltas {
		a.counts[cd.cl] += uint64(cd.n)
	}
	a.origInsts += uint64(t.orig)
	a.ovhdInsts += uint64(t.ovhd)
	a.ldsLoads += uint64(t.lds)
	a.otherLoads += uint64(t.other)
	a.rp.replayedInsts += uint64(len(t.ins))
	if d.Class == Jump || (d.Class == Branch && d.Taken) {
		a.rp.simLine = 0
	} else {
		a.rp.simLine = d.PC>>5<<5 | 1
	}
	a.rp.tmpl = nil
	a.rp.atStart = true
}

// closeCapture seals a captured block: computes its accounting deltas
// and inserts it into the table.
func (a *Asm) closeCapture(b *block) {
	var counts [NumClasses]uint32
	for i := range b.ins {
		e := &b.ins[i]
		counts[e.class]++
		if e.flags&FOverhead != 0 {
			b.ovhd++
		} else {
			b.orig++
		}
		if e.class == Load {
			if e.flags&FLDS != 0 {
				b.lds++
			} else {
				b.other++
			}
		}
	}
	for cl, n := range counts {
		if n != 0 {
			b.deltas = append(b.deltas, classDelta{cl: Class(cl), n: n})
		}
	}
	a.rp.insert(b)
	a.rp.blocksCaptured++
	a.rp.cap = nil
	a.rp.atStart = true
}

// accountPrefix applies the deferred per-instruction accounting for the
// first n template entries of t (a fast-pathed prefix whose block-level
// delta will never be applied).
func (a *Asm) accountPrefix(t *block, n int) {
	for i := 0; i < n; i++ {
		e := &t.ins[i]
		a.counts[e.class]++
		if e.flags&FOverhead != 0 {
			a.ovhdInsts++
		} else {
			a.origInsts++
		}
		if e.class == Load {
			if e.flags&FLDS != 0 {
				a.ldsLoads++
			} else {
				a.otherLoads++
			}
		}
	}
}

// finishReplayTail settles a stream that ends mid-replay: the prefix of
// the in-flight block is accounted from its template.  stats calls it
// on a copy of the Asm; idempotent.
func (a *Asm) finishReplayTail() {
	if t := a.rp.tmpl; t != nil {
		a.accountPrefix(t, a.rp.pos)
		a.rp.tmpl = nil
	}
}

// abortReplay handles a template mismatch mid-block: the fast-pathed
// prefix [0, pos) skipped per-inst accounting, so it is re-accounted
// from the template, the block's abort count advances (evicting
// persistently wrong templates), and emission drops to the bypass path
// until the next control boundary.
func (a *Asm) abortReplay(t *block) {
	r := &a.rp
	a.accountPrefix(t, r.pos)
	if r.pos > 0 {
		// The fast path defers fetch-line tracking to block close;
		// advance it past the replayed prefix (interior instructions
		// are never control flow, so the line is that of the last
		// prefix instruction).
		a.rp.simLine = uint32(t.ins[r.pos-1].key)>>5<<5 | 1
	}
	r.replayAborts++
	if t.aborts++; t.aborts >= maxBlockAborts {
		r.remove(t.entry)
	}
	r.tmpl = nil
	// Note: atStart stays false — bypass until the next control-flow
	// instruction realigns block boundaries.
}
