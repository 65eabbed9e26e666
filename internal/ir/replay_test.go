package ir

import (
	"testing"

	"repro/internal/heap"
	"repro/internal/mem"
)

// drainWith runs a kernel under the given options and collects its
// instructions, metadata (via NextBatch), and stats.
func drainWith(t *testing.T, kernel func(*Asm), opt GenOptions) ([]DynInst, []InstMeta, Stats) {
	t.Helper()
	alloc := heap.New(mem.NewImage())
	g := NewGenWith(alloc, kernel, opt)
	var ins []DynInst
	var meta []InstMeta
	for {
		b, m := g.NextBatch()
		if b == nil {
			break
		}
		ins = append(ins, b...)
		meta = append(meta, m...)
	}
	return ins, meta, g.Stats()
}

// refMeta independently recomputes the dispatch metadata a stream must
// carry: a pure function of the instruction sequence, and the reference
// model of the core's fetch decode (memory/store/control classes and
// 32-byte fetch-line crossings, reset after taken control flow).
func refMeta(ins []DynInst) []InstMeta {
	var line uint32
	out := make([]InstMeta, len(ins))
	for i := range ins {
		d := &ins[i]
		var m InstMeta
		switch d.Class {
		case Load, Prefetch:
			m = MetaMem
		case Store:
			m = MetaMem | MetaStore
		case Branch, Jump:
			m = MetaCtrl
		}
		l := d.PC>>5<<5 | 1
		if l != line {
			m |= MetaNewLine
		}
		if d.Class == Jump || (d.Class == Branch && d.Taken) {
			line = 0
		} else {
			line = l
		}
		out[i] = m
	}
	return out
}

// loopKernel emits a uniform pointer-chase-style loop: the bread and
// butter replay case (one block, replayed n-1 times).
func loopKernel(n int) func(*Asm) {
	return func(a *Asm) {
		p := a.Malloc(64)
		for i := 0; i < n; i++ {
			v := a.Load(100, p, 0, FLDS)
			w := a.Alu(101, v.U32()+1, v, Val{})
			a.Store(102, p, 0, w)
			a.Branch(103, i+1 < n, 100, w, Val{})
		}
	}
}

// divergentKernel takes a data-dependent emission path inside the loop
// body every third iteration, forcing replay aborts and bypass
// realignment.
func divergentKernel(n int) func(*Asm) {
	return func(a *Asm) {
		p := a.Malloc(64)
		for i := 0; i < n; i++ {
			a.Load(100, p, 0, 0)
			if i%3 == 1 {
				a.Alu(101, uint32(i), Val{}, Val{})
			}
			a.Alu(102, 2, Val{}, Val{})
			a.Branch(103, i+1 < n, 100, Val{}, Val{})
		}
	}
}

// overheadKernel toggles overhead tagging across iterations of the same
// PC region, so the same entry PC is seen with different final flags.
func overheadKernel(n int) func(*Asm) {
	return func(a *Asm) {
		p := a.Malloc(64)
		for i := 0; i < n; i++ {
			body := func() {
				a.Load(100, p, 0, FLDS)
				a.Prefetch(101, p, 32, 0)
				a.Branch(102, i+1 < n, 100, Val{}, Val{})
			}
			if i%2 == 0 {
				a.Overhead(body)
			} else {
				body()
			}
		}
	}
}

// straightKernel emits a long control-free run, exercising the
// maxBlockLen cut.
func straightKernel(n int) func(*Asm) {
	return func(a *Asm) {
		for i := 0; i < n; i++ {
			for s := 0; s < 3*maxBlockLen; s++ {
				a.Alu(100+s, uint32(s), Val{}, Val{})
			}
			a.Jump(100+3*maxBlockLen, 100, 0)
		}
	}
}

var replayKernels = map[string]func(*Asm){
	"loop":      loopKernel(700),
	"divergent": divergentKernel(700),
	"overhead":  overheadKernel(700),
	"straight":  straightKernel(40),
	"batchspan": loopKernel(3 * BatchSize), // blocks straddling batch boundaries
}

// TestReplayStreamIdentical locks the core replay invariant: the
// emitted instruction stream, its dispatch metadata and the accounting
// totals are bit-identical with replay on and off.
func TestReplayStreamIdentical(t *testing.T) {
	for name, kern := range replayKernels {
		t.Run(name, func(t *testing.T) {
			on, onMeta, statsOn := drainWith(t, kern, GenOptions{})
			off, offMeta, statsOff := drainWith(t, kern, GenOptions{DisableReplay: true})
			if len(on) != len(off) {
				t.Fatalf("stream lengths differ: %d vs %d", len(on), len(off))
			}
			if len(onMeta) != len(offMeta) {
				t.Fatalf("metadata lengths differ: %d vs %d", len(onMeta), len(offMeta))
			}
			for i := range on {
				if on[i] != off[i] {
					t.Fatalf("inst %d differs:\n  on:  %+v\n  off: %+v", i, on[i], off[i])
				}
				if onMeta[i] != offMeta[i] {
					t.Fatalf("inst %d (%s pc=%#x): meta on %#x, off %#x",
						i, on[i].Class, on[i].PC, onMeta[i], offMeta[i])
				}
			}
			// Accounting identical modulo the replay counters themselves.
			statsOn.BlocksCaptured, statsOn.ReplayedInsts, statsOn.ReplayAborts = 0, 0, 0
			if statsOn != statsOff {
				t.Fatalf("stats differ:\n  on:  %+v\n  off: %+v", statsOn, statsOff)
			}
		})
	}
}

// TestReplayMetaExact checks every metadata byte — including across
// aborts, overhead toggles, block cuts, and batch boundaries — against
// an independent recomputation from the stream, with replay on (template
// bytes) and off (live decode).
func TestReplayMetaExact(t *testing.T) {
	modes := []struct {
		name string
		opt  GenOptions
	}{{"replay", GenOptions{}}, {"noreplay", GenOptions{DisableReplay: true}}}
	for name, kern := range replayKernels {
		t.Run(name, func(t *testing.T) {
			for _, mode := range modes {
				t.Run(mode.name, func(t *testing.T) {
					ins, meta, _ := drainWith(t, kern, mode.opt)
					if len(meta) != len(ins) {
						t.Fatalf("%d meta bytes for %d instructions", len(meta), len(ins))
					}
					want := refMeta(ins)
					for i := range want {
						if meta[i] != want[i] {
							t.Fatalf("inst %d (%s pc=%#x): meta %#x, want %#x",
								i, ins[i].Class, ins[i].PC, meta[i], want[i])
						}
					}
				})
			}
		})
	}
}

// TestReplayHitRate checks the cache actually replays: a uniform loop
// must capture a handful of blocks and replay nearly every instruction.
func TestReplayHitRate(t *testing.T) {
	_, _, stats := drainWith(t, loopKernel(1000), GenOptions{})
	if stats.BlocksCaptured == 0 {
		t.Fatal("no blocks captured")
	}
	if stats.ReplayAborts != 0 {
		t.Fatalf("uniform loop aborted %d times", stats.ReplayAborts)
	}
	if hit := float64(stats.ReplayedInsts) / float64(stats.Total()); hit < 0.9 {
		t.Fatalf("replay hit rate %.2f for a uniform loop (replayed %d of %d)",
			hit, stats.ReplayedInsts, stats.Total())
	}
}

// TestReplayAborts checks divergent emission paths are detected and
// survive: aborts are counted and the slow path keeps the stream exact
// (stream identity is covered by TestReplayStreamIdentical).
func TestReplayAborts(t *testing.T) {
	_, _, stats := drainWith(t, divergentKernel(700), GenOptions{})
	if stats.ReplayAborts == 0 {
		t.Fatal("divergent kernel recorded no replay aborts")
	}
}

// TestNextBatchMatchesNext checks the two drain APIs deliver the same
// stream, including after a partial per-instruction drain.
func TestNextBatchMatchesNext(t *testing.T) {
	kern := loopKernel(2*BatchSize + 100)
	var viaNext []DynInst
	{
		alloc := heap.New(mem.NewImage())
		g := NewGen(alloc, kern)
		for d := g.Next(); d != nil; d = g.Next() {
			viaNext = append(viaNext, *d)
		}
	}
	var mixed []DynInst
	{
		alloc := heap.New(mem.NewImage())
		g := NewGen(alloc, kern)
		// Start per-instruction, then switch to batch drain mid-batch.
		for i := 0; i < 10; i++ {
			mixed = append(mixed, *g.Next())
		}
		for {
			b, m := g.NextBatch()
			if b == nil {
				break
			}
			if len(m) != len(b) {
				t.Fatalf("meta length %d for batch length %d", len(m), len(b))
			}
			mixed = append(mixed, b...)
		}
	}
	if len(viaNext) != len(mixed) {
		t.Fatalf("lengths differ: %d vs %d", len(viaNext), len(mixed))
	}
	for i := range viaNext {
		if viaNext[i] != mixed[i] {
			t.Fatalf("inst %d differs", i)
		}
	}
}

// benchEmit measures raw emission+handoff cost per instruction.
func benchEmit(b *testing.B, opt GenOptions) {
	const loop = 50000
	kern := loopKernel(loop)
	b.ReportAllocs()
	var total int
	for i := 0; i < b.N; i++ {
		alloc := heap.New(mem.NewImage())
		g := NewGenWith(alloc, kern, opt)
		for {
			ins, _ := g.NextBatch()
			if ins == nil {
				break
			}
			total += len(ins)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/inst")
}

// BenchmarkEmitReplay guards the per-instruction emission cost of the
// replay fast path; BenchmarkEmitNoReplay guards the plain path.
func BenchmarkEmitReplay(b *testing.B)   { benchEmit(b, GenOptions{}) }
func BenchmarkEmitNoReplay(b *testing.B) { benchEmit(b, GenOptions{DisableReplay: true}) }
