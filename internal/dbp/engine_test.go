package dbp

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/mem"
)

// testRig builds an engine over a small simulated list.
type testRig struct {
	eng   *Engine
	alloc *heap.Allocator
	hier  *cache.Hierarchy
	nodes []uint32
}

func newRig(t *testing.T, n int) *testRig {
	t.Helper()
	img := mem.NewImage()
	alloc := heap.New(img)
	p := cache.Defaults()
	p.EnablePB = true
	hier := cache.New(p)
	eng := NewEngine(Defaults(), hier, alloc)

	nodes := make([]uint32, n)
	for i := range nodes {
		nodes[i] = alloc.Alloc(12)
	}
	for i := 0; i+1 < n; i++ {
		img.WriteWord(nodes[i]+4, nodes[i+1]) // next at offset 4
	}
	return &testRig{eng: eng, alloc: alloc, hier: hier, nodes: nodes}
}

const (
	pcNext = 0x400100 // l = l->next
	pcVal  = 0x400104 // v = l->value
)

// commitLoad simulates commit of "load pc base+off -> value".
func (r *testRig) commitLoad(now uint64, pc, base, off uint32) {
	d := &ir.DynInst{
		PC:        pc,
		Class:     ir.Load,
		Addr:      base + off,
		BaseValue: base,
		Value:     r.eng.Image().ReadWord(base + off),
		Flags:     ir.FLDS,
	}
	r.eng.OnCommit(now, d)
}

func TestTrainingBuildsSelfEdge(t *testing.T) {
	r := newRig(t, 10)
	// Walk the list at commit level: each next-load's base is the
	// previous next-load's value.
	for i := 0; i < 9; i++ {
		r.commitLoad(uint64(i), pcNext, r.nodes[i], 4)
	}
	if !r.eng.DP().HasEdge(pcNext, pcNext) {
		t.Fatal("self-recurrent edge not learned")
	}
}

func TestTrainingBuildsConsumerEdge(t *testing.T) {
	r := newRig(t, 10)
	for i := 0; i < 9; i++ {
		r.commitLoad(uint64(2*i), pcNext, r.nodes[i], 4)
		r.commitLoad(uint64(2*i+1), pcVal, r.nodes[i+1], 0)
	}
	found := false
	for _, d := range r.eng.DP().Query(pcNext) {
		if d.ConsumerPC == pcVal && d.Offset == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("rib consumer edge not learned")
	}
}

func TestChaseIssuesPrefetches(t *testing.T) {
	r := newRig(t, 64)
	for i := 0; i < 20; i++ {
		r.commitLoad(uint64(i), pcNext, r.nodes[i], 4)
	}
	// A completed load of node 20's next pointer triggers a chase.
	d := &ir.DynInst{
		PC: pcNext, Class: ir.Load, Addr: r.nodes[20] + 4,
		BaseValue: r.nodes[20], Value: r.nodes[21], Flags: ir.FLDS,
	}
	r.eng.Tick(99, 0) // arm the per-cycle query quota
	r.eng.OnLoadComplete(100, d)
	issued := uint64(0)
	for cycle := uint64(101); cycle < 3000; cycle++ {
		r.eng.Tick(cycle, 2)
		if s := r.eng.Stats(); s.IssuedPrefetch > issued {
			issued = s.IssuedPrefetch
		}
	}
	if issued == 0 {
		t.Fatal("no prefetches issued from a chase")
	}
	// The chain must have walked multiple nodes ahead.
	if issued < 3 {
		t.Fatalf("chain issued only %d prefetches", issued)
	}
}

func TestChainDepthBounded(t *testing.T) {
	r := newRig(t, 200)
	for i := 0; i < 20; i++ {
		r.commitLoad(uint64(i), pcNext, r.nodes[i], 4)
	}
	d := &ir.DynInst{
		PC: pcNext, Class: ir.Load, Addr: r.nodes[20] + 4,
		BaseValue: r.nodes[20], Value: r.nodes[21], Flags: ir.FLDS,
	}
	r.eng.Tick(99, 0) // arm the per-cycle query quota
	r.eng.OnLoadComplete(100, d)
	for cycle := uint64(101); cycle < 50000; cycle++ {
		r.eng.Tick(cycle, 2)
	}
	// One trigger chases at most MaxChainDepth levels; each level is at
	// most a couple of lines.
	max := uint64(2 * (Defaults().MaxChainDepth + 2))
	if s := r.eng.Stats(); s.IssuedPrefetch+s.DroppedPresent > max {
		t.Fatalf("single trigger expanded to %d requests (cap ~%d)",
			s.IssuedPrefetch+s.DroppedPresent, max)
	}
}

func TestJumpChasePrefetchFeedsChaser(t *testing.T) {
	r := newRig(t, 64)
	img := r.eng.Image()
	// Plant a jump pointer at node 0 (+8) to node 8.
	img.WriteWord(r.nodes[0]+8, r.nodes[8])
	// Train consumer edges first.
	for i := 0; i < 20; i++ {
		r.commitLoad(uint64(i), pcNext, r.nodes[i], 4)
	}
	d := &ir.DynInst{
		PC: 0x400200, Class: ir.Prefetch, Addr: r.nodes[0] + 8,
		Flags: ir.FJumpChase,
	}
	r.eng.OnSWPrefetch(100, d, 101)
	for cycle := uint64(101); cycle < 1000; cycle++ {
		r.eng.Tick(cycle, 2)
	}
	s := r.eng.Stats()
	if s.IssuedPrefetch == 0 {
		t.Fatal("jump-chase produced no prefetches")
	}
	// The target's value must now be a potential producer: committing a
	// load with base == nodes[8] trains a jump edge.
	r.commitLoad(2000, pcVal, r.nodes[8], 0)
	if r.eng.Stats().JumpTrained == 0 {
		t.Fatal("jump producer window did not train")
	}
}

func TestPRQCapacity(t *testing.T) {
	r := newRig(t, 64)
	// Enqueue more distinct-line requests than the PRQ holds, with no
	// draining ticks in between.
	for i := 0; i < 20; i++ {
		r.eng.EnqueuePrefetch(r.nodes[0]+uint32(i)*4096, pcNext, 0, OChase)
	}
	if s := r.eng.Stats(); s.PRQDrops == 0 {
		t.Fatal("PRQ accepted more requests than its capacity")
	}
	if r.eng.prqLen > Defaults().PRQEntries {
		t.Fatalf("PRQ holds %d entries", r.eng.prqLen)
	}
}

func TestPiggybackContinuation(t *testing.T) {
	r := newRig(t, 64)
	// Two requests for the same line with different PCs: one memory
	// request, both continuations.
	r.eng.EnqueuePrefetch(r.nodes[0], pcNext, 0, OChase)
	r.eng.EnqueuePrefetch(r.nodes[0]+4, pcVal, 0, OChase)
	if got := r.eng.prqLen; got != 1 {
		t.Fatalf("PRQ holds %d entries, want 1 (piggybacked)", got)
	}
	if int(r.eng.prq[r.eng.prqHead].nconts) != 1 {
		t.Fatalf("continuation not recorded")
	}
	r.eng.Tick(1, 2)
	// Both arrivals pending now (same completion time).
	if got := r.eng.arrivals.len(); got != 2 {
		t.Fatalf("%d pending arrivals, want 2", got)
	}
}

func TestGarbageValuesNotChased(t *testing.T) {
	r := newRig(t, 8)
	for i := 0; i < 7; i++ {
		r.commitLoad(uint64(i), pcNext, r.nodes[i], 4)
	}
	d := &ir.DynInst{
		PC: pcNext, Class: ir.Load, Addr: r.nodes[0] + 4,
		BaseValue: r.nodes[0], Value: 0xDEAD, // not a heap address
		Flags: ir.FLDS,
	}
	r.eng.Tick(99, 0)
	before := r.eng.Stats().ChaseQueries
	r.eng.OnLoadComplete(100, d)
	if r.eng.Stats().ChaseQueries != before {
		t.Fatal("chased a non-heap value")
	}
}

// TestInTickDedupSeesProcessedArrivals pins Tick's in-Tick dedup rule:
// an arrival processed earlier in the same Tick still absorbs a request
// for its line as a continuation, until a later kept entry is compacted
// into its slot; after that the request goes to the PRQ.
func TestInTickDedupSeesProcessedArrivals(t *testing.T) {
	const (
		pcA = 0x400300 // no predictor edges: processing A chases nothing
		pcB = 0x400304 // B's fetched word points at X; B -> C at offset 4
		pcC = 0x400308
	)
	run := func(keepBetween bool) Stats {
		r := newRig(t, 64)
		x := r.nodes[32]
		y := r.nodes[0] + 8
		r.eng.Image().WriteWord(y, x)
		r.eng.DP().Insert(pcB, pcC, 4)

		r.eng.arrivals.add(arrival{done: 10, addr: x, pc: pcA})
		if keepBetween {
			// Not due at cycle 10: kept, and compacted into A's slot.
			r.eng.arrivals.add(arrival{done: 50, addr: r.nodes[16], pc: pcA})
		}
		r.eng.arrivals.add(arrival{done: 10, addr: y, pc: pcB})
		r.eng.Tick(10, 0) // no free ports: a PRQ request stays queued
		return r.eng.Stats()
	}

	// A's slot untouched when B chases to X+4: the request dedups
	// against the already-processed A.
	if s := run(false); s.DedupDrops != 1 || s.Requested != 0 {
		t.Fatalf("A visible: dedup %d, requested %d; want 1, 0", s.DedupDrops, s.Requested)
	}
	// The kept entry overwrote A's slot: X+4 becomes a PRQ request.
	if s := run(true); s.DedupDrops != 0 || s.Requested != 1 {
		t.Fatalf("A overwritten: dedup %d, requested %d; want 0, 1", s.DedupDrops, s.Requested)
	}
}
