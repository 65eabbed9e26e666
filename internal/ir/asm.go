package ir

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/mem"
)

// Val is a register value handle.  Workload kernels thread Vals between
// Asm calls; each Val carries the concrete 32-bit value (so the kernel
// can compute with it in Go) and the dynamic sequence number of the
// producing instruction (so the timing core can track dependences).
//
// The zero Val is the constant 0: always ready, produced by nothing.
type Val struct {
	seq uint64
	v   uint32
}

// Imm returns a constant value, always ready.
func Imm(v uint32) Val { return Val{v: v} }

// U32 returns the concrete value.
func (v Val) U32() uint32 { return v.v }

// IsNil reports whether the value is a null pointer.
func (v Val) IsNil() bool { return v.v == 0 }

// Sites 0..63 are reserved for the simulated runtime (malloc, free).
// Workload kernels must use sites >= FirstUserSite.
const (
	mallocSite    = 0
	mallocSiteEnd = 15
	freeSite      = 16
	freeSiteEnd   = 23
	// FirstUserSite is the first static-instruction site available to
	// workload kernels.
	FirstUserSite = 64
)

// SitePC converts a static site id to its simulated program counter.
func SitePC(site int) uint32 { return CodeBase + uint32(site)*4 }

// Asm builds a workload's dynamic instruction stream.  It is handed to
// the kernel function by NewGen and must not be retained after the
// kernel returns.
//
// Emission writes each decoded instruction directly into its final slot
// of the outgoing batch (the decoded-trace buffer the timing core
// replays from): one struct store per instruction, no scratch copy and
// no per-instruction closure call.  The batch is handed to the consumer
// only at the exact instant it fills — immediately after the
// BatchSize'th instruction's accounting, before any further functional
// execution — so the memory image and allocator state the timing side
// observes at each handoff are identical to the historical
// emit-callback path.
type Asm struct {
	img  *mem.Image
	heap *heap.Allocator

	// batch is the in-progress decoded batch (cap BatchSize); send
	// blocks until the consumer has drained a full batch and handed the
	// buffer back.  meta carries one pre-decoded dispatch byte per
	// batch slot and is handed over with the batch.
	batch []DynInst
	meta  []InstMeta
	send  func([]DynInst, []InstMeta)

	// rp is the basic-block capture/replay state machine (see
	// replay.go); replay is false when the cache is disabled, and rp
	// then only tracks the fetch-line state for liveMeta.
	rp     replayState
	replay bool

	seq      uint64
	sp       uint32
	overhead bool

	counts     [NumClasses]uint64
	origInsts  uint64 // non-overhead instructions
	ovhdInsts  uint64 // overhead (prefetch-transformation) instructions
	ldsLoads   uint64
	otherLoads uint64
}

// newAsm is called by NewGen.  When replay is true the Asm captures and
// replays decoded basic blocks.
func newAsm(alloc *heap.Allocator, send func([]DynInst, []InstMeta), replay bool) *Asm {
	return &Asm{
		img:    alloc.Image(),
		heap:   alloc,
		batch:  make([]DynInst, 0, BatchSize),
		meta:   make([]InstMeta, 0, BatchSize),
		send:   send,
		sp:     StackBase,
		rp:     replayState{atStart: true},
		replay: replay,
	}
}

// slot extends the batch by one instruction and returns the slot to
// decode into.  The caller must fill every field (slots are reused
// across batches) and then call finish.
func (a *Asm) slot() *DynInst {
	n := len(a.batch)
	a.batch = a.batch[:n+1]
	return &a.batch[n]
}

// flushTail hands any unsent instructions to the consumer; NewGen calls
// it after the kernel returns.
func (a *Asm) flushTail() {
	if len(a.batch) > 0 {
		a.sendBatch()
	}
}

// sendBatch hands the filled batch and its metadata to the consumer
// and resets the buffers.
func (a *Asm) sendBatch() {
	a.send(a.batch, a.meta)
	a.batch = a.batch[:0]
	a.meta = a.meta[:0]
}

// Heap returns the simulated allocator, for workloads that need direct
// inspection (e.g. padding-slot addresses for software jump-pointers).
func (a *Asm) Heap() *heap.Allocator { return a.heap }

func (a *Asm) next(site int) (uint64, uint32) {
	a.seq++
	return a.seq, SitePC(site)
}

// finish completes the instruction decoded into d (the most recent
// slot): classification accounting, overhead tagging, dispatch
// metadata, and the batch handoff when d was the batch's last slot.
// With block replay enabled it routes through the capture/replay state
// machine instead.
func (a *Asm) finish(d *DynInst) {
	if a.replay {
		a.finishTracked(d)
		return
	}
	a.account(d)
	a.meta = append(a.meta, a.liveMeta(d))
	if len(a.batch) == BatchSize {
		a.sendBatch()
	}
}

// account applies per-instruction classification accounting and
// finalizes d's flags (overhead tagging).
func (a *Asm) account(d *DynInst) {
	a.counts[d.Class]++
	if a.overhead || d.Class == Prefetch {
		d.Flags |= FOverhead
	}
	if d.Flags&FOverhead != 0 {
		a.ovhdInsts++
	} else {
		a.origInsts++
	}
	if d.Class == Load {
		if d.Flags&FLDS != 0 {
			a.ldsLoads++
		} else {
			a.otherLoads++
		}
	}
}

// Overhead runs fn with all emitted instructions tagged FOverhead.  The
// prefetching idioms wrap jump-pointer creation and prefetch code in it
// so that overhead accounting (Figure 6 normalization, the costs table)
// is automatic.
func (a *Asm) Overhead(fn func()) {
	prev := a.overhead
	a.overhead = true
	fn()
	a.overhead = prev
}

// Op emits an instruction of class c whose result the kernel computed in
// Go.  x and y are the register inputs (use Imm for constants).
func (a *Asm) Op(site int, c Class, result uint32, x, y Val) Val {
	seq, pc := a.next(site)
	d := a.slot()
	*d = DynInst{Seq: seq, PC: pc, Class: c, Src1: x.seq, Src2: y.seq, Value: result}
	a.finish(d)
	return Val{seq: seq, v: result}
}

// Alu emits a single-cycle integer operation.
func (a *Asm) Alu(site int, result uint32, x, y Val) Val {
	return a.Op(site, IntAlu, result, x, y)
}

// AddImm emits the common pointer-arithmetic idiom x + k.
func (a *Asm) AddImm(site int, x Val, k uint32) Val {
	return a.Op(site, IntAlu, x.v+k, x, Val{})
}

// Load emits a binding load from base+off and returns the loaded value.
func (a *Asm) Load(site int, base Val, off uint32, flags Flag) Val {
	seq, pc := a.next(site)
	addr := base.v + off
	v := a.img.ReadWord(addr)
	d := a.slot()
	*d = DynInst{
		Seq: seq, PC: pc, Class: Load, Src1: base.seq,
		Addr: addr, Value: v, BaseValue: base.v,
		Flags: flags,
	}
	a.finish(d)
	return Val{seq: seq, v: v}
}

// LoadIdx emits a load from base+idx+off with two register inputs
// (array indexing).
func (a *Asm) LoadIdx(site int, base, idx Val, off uint32, flags Flag) Val {
	seq, pc := a.next(site)
	addr := base.v + idx.v + off
	v := a.img.ReadWord(addr)
	d := a.slot()
	*d = DynInst{
		Seq: seq, PC: pc, Class: Load, Src1: base.seq, Src2: idx.seq,
		Addr: addr, Value: v, BaseValue: base.v,
		Flags: flags,
	}
	a.finish(d)
	return Val{seq: seq, v: v}
}

// Store emits a store of val to base+off.
func (a *Asm) Store(site int, base Val, off uint32, val Val) {
	seq, pc := a.next(site)
	addr := base.v + off
	a.img.WriteWord(addr, val.v)
	d := a.slot()
	*d = DynInst{
		Seq: seq, PC: pc, Class: Store, Src1: base.seq, Src2: val.seq,
		Addr: addr, Value: val.v, BaseValue: base.v,
	}
	a.finish(d)
}

// Prefetch emits a non-binding software prefetch of the block at
// base+off.  Prefetches are always overhead instructions.
func (a *Asm) Prefetch(site int, base Val, off uint32, flags Flag) {
	seq, pc := a.next(site)
	addr := base.v + off
	d := a.slot()
	*d = DynInst{
		Seq: seq, PC: pc, Class: Prefetch, Src1: base.seq,
		Addr: addr, BaseValue: base.v,
		Flags: flags,
	}
	a.finish(d)
}

// Branch emits a conditional branch at site, jumping to targetSite when
// taken.  x and y are the compared register inputs.
func (a *Asm) Branch(site int, taken bool, targetSite int, x, y Val) {
	seq, pc := a.next(site)
	d := a.slot()
	*d = DynInst{
		Seq: seq, PC: pc, Class: Branch, Src1: x.seq, Src2: y.seq,
		Taken: taken, Target: SitePC(targetSite),
	}
	a.finish(d)
}

// Jump emits an unconditional jump to targetSite.
func (a *Asm) Jump(site, targetSite int, flags Flag) {
	seq, pc := a.next(site)
	d := a.slot()
	*d = DynInst{Seq: seq, PC: pc, Class: Jump, Taken: true,
		Target: SitePC(targetSite), Flags: flags}
	a.finish(d)
}

// Call emits a procedure call (jump flagged FCall).
func (a *Asm) Call(site, targetSite int) { a.Jump(site, targetSite, FCall) }

// Ret emits a procedure return (jump flagged FReturn; returns are
// predicted perfectly, standing in for a return-address stack).
func (a *Asm) Ret(site int) { a.Jump(site, site, FReturn) }

// Push spills v to the simulated stack (register save).
func (a *Asm) Push(site int, v Val) {
	a.sp -= mem.WordBytes
	a.storeAbs(site, a.sp, v)
}

// Pop reloads the most recent spill.
func (a *Asm) Pop(site int) Val {
	v := a.loadAbs(site, a.sp, 0)
	a.sp += mem.WordBytes
	return v
}

func (a *Asm) loadAbs(site int, addr uint32, flags Flag) Val {
	seq, pc := a.next(site)
	v := a.img.ReadWord(addr)
	d := a.slot()
	*d = DynInst{Seq: seq, PC: pc, Class: Load, Addr: addr, Value: v, Flags: flags}
	a.finish(d)
	return Val{seq: seq, v: v}
}

func (a *Asm) storeAbs(site int, addr uint32, val Val) {
	seq, pc := a.next(site)
	a.img.WriteWord(addr, val.v)
	d := a.slot()
	*d = DynInst{Seq: seq, PC: pc, Class: Store, Src1: val.seq, Addr: addr, Value: val.v}
	a.finish(d)
}

// LoadGlobal emits a load from the static data area.
func (a *Asm) LoadGlobal(site int, off uint32) Val {
	return a.loadAbs(site, GlobalBase+off, 0)
}

// StoreGlobal emits a store to the static data area.
func (a *Asm) StoreGlobal(site int, off uint32, val Val) {
	a.storeAbs(site, GlobalBase+off, val)
}

// mallocMeta is the global address of the simulated allocator's
// metadata, touched by Malloc/FreeNode to charge realistic allocator
// cache behaviour.
const mallocMeta = GlobalBase + 0x1000

// Malloc allocates n payload bytes on the simulated heap and emits the
// instruction cost of a size-class allocator call: a handful of integer
// operations plus free-list metadata accesses.  The returned Val is the
// block pointer.
func (a *Asm) Malloc(n uint32) Val { return a.MallocIn(0, n) }

// MallocIn is Malloc into a specific arena (locality domain).
func (a *Asm) MallocIn(id heap.ArenaID, n uint32) Val {
	// Size-class computation.
	v := a.Alu(mallocSite, n, Imm(n), Val{})
	v = a.Alu(mallocSite+1, heap.SizeClass(n), v, Val{})
	// Free-list head load, unlink, store back.
	cls := heap.SizeClass(n)
	head := a.loadAbs(mallocSite+2, mallocMeta+cls, 0)
	addr := a.heap.AllocIn(id, n)
	p := a.Alu(mallocSite+3, addr, head, v)
	a.storeAbs(mallocSite+4, mallocMeta+cls, p)
	// Bookkeeping arithmetic typical of dlmalloc-style allocators.
	p = a.Alu(mallocSite+5, addr, p, Val{})
	a.Branch(mallocSite+6, false, mallocSite, p, Val{})
	return Val{seq: p.seq, v: addr}
}

// FreeNode releases the block at p, emitting free-list relink cost.
func (a *Asm) FreeNode(p Val) {
	cls := a.heap.BlockSize(p.v)
	a.heap.Free(p.v)
	head := a.loadAbs(freeSite, mallocMeta+cls, 0)
	v := a.Alu(freeSite+1, p.v, p, head)
	a.storeAbs(freeSite+2, mallocMeta+cls, v)
}

// Nop emits a no-op (used to pad loop bodies when calibrating work per
// iteration in tests).
func (a *Asm) Nop(site int) {
	seq, pc := a.next(site)
	d := a.slot()
	*d = DynInst{Seq: seq, PC: pc, Class: Nop}
	a.finish(d)
}

// Stats summarizes what a kernel emitted.
type Stats struct {
	Counts     [NumClasses]uint64
	OrigInsts  uint64
	OvhdInsts  uint64
	LDSLoads   uint64
	OtherLoads uint64

	// Replay-cache counters (all zero when block replay is disabled).
	// BlocksCaptured counts decoded blocks inserted into the table,
	// ReplayedInsts counts instructions emitted through the replay fast
	// path as part of a completed block, and ReplayAborts counts
	// template mismatches (data-dependent emission paths).
	BlocksCaptured uint64
	ReplayedInsts  uint64
	ReplayAborts   uint64
}

// Total returns the total dynamic instruction count.
func (s Stats) Total() uint64 { return s.OrigInsts + s.OvhdInsts }

// stats reports the counts of the stream emitted so far.  It leaves
// the Asm untouched (the in-flight replay block is settled on a copy),
// so the readers of a shared stream may call it side by side.
func (a *Asm) stats() Stats {
	c := *a
	c.finishReplayTail()
	return Stats{
		Counts:         c.counts,
		OrigInsts:      c.origInsts,
		OvhdInsts:      c.ovhdInsts,
		LDSLoads:       c.ldsLoads,
		OtherLoads:     c.otherLoads,
		BlocksCaptured: c.rp.blocksCaptured,
		ReplayedInsts:  c.rp.replayedInsts,
		ReplayAborts:   c.rp.replayAborts,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("insts=%d (orig=%d ovhd=%d) loads=%d/%d(lds/other)",
		s.Total(), s.OrigInsts, s.OvhdInsts, s.LDSLoads, s.OtherLoads)
}
