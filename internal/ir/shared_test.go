package ir

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/mem"
)

// readerOut is what one reader of a shared stream collected.
type readerOut struct {
	ins   []DynInst
	meta  []InstMeta
	stats Stats
	err   any
}

// drainShared runs kernel once for n readers, each draining its Gen on
// a goroutine of its own through NextBatch.  visit, when non-nil, is
// called by each reader on every batch it receives.
func drainShared(kernel func(*Asm), opt GenOptions, n int, visit func(r int, alloc *heap.Allocator, b []DynInst)) []readerOut {
	alloc := heap.New(mem.NewImage())
	gens := NewGenShared(alloc, kernel, opt, n)
	out := make([]readerOut, n)
	var wg sync.WaitGroup
	for r, g := range gens {
		wg.Add(1)
		go func(r int, g *Gen) {
			defer wg.Done()
			defer func() { out[r].err = recover() }()
			for {
				b, m := g.NextBatch()
				if b == nil {
					break
				}
				if visit != nil {
					visit(r, alloc, b)
				}
				out[r].ins = append(out[r].ins, b...)
				out[r].meta = append(out[r].meta, m...)
			}
			out[r].stats = g.Stats()
		}(r, g)
	}
	wg.Wait()
	return out
}

// TestSharedGenMatchesSolo: every reader of a shared stream receives
// exactly the stream, metadata and counts a generator of its own
// yields, with replay on and off.
func TestSharedGenMatchesSolo(t *testing.T) {
	for name, kern := range replayKernels {
		for _, opt := range []GenOptions{{}, {DisableReplay: true}} {
			ins, meta, stats := drainWith(t, kern, opt)
			for r, got := range drainShared(kern, opt, 2, nil) {
				if got.err != nil {
					t.Fatalf("%s/%+v reader %d: %v", name, opt, r, got.err)
				}
				if !reflect.DeepEqual(got.ins, ins) || !reflect.DeepEqual(got.meta, meta) {
					t.Errorf("%s/%+v reader %d: stream differs from a solo generator's", name, opt, r)
				}
				if got.stats != stats {
					t.Errorf("%s/%+v reader %d: stats %+v, solo %+v", name, opt, r, got.stats, stats)
				}
			}
		}
	}
}

// TestSharedGenHandsOffAtBatchBoundary pins the image contract of a
// shared stream: while a reader drains a batch, the kernel is parked at
// that batch's end, whichever reader is draining.  Every instruction
// stores its own sequence number into one global word, so the word must
// read the batch's last sequence number.
func TestSharedGenHandsOffAtBatchBoundary(t *testing.T) {
	kern := func(a *Asm) {
		for i := 0; i < 3*BatchSize+100; i++ {
			a.StoreGlobal(100, 0, Imm(uint32(a.seq+1)))
		}
	}
	var mu sync.Mutex
	bad := 0
	out := drainShared(kern, GenOptions{}, 2, func(r int, alloc *heap.Allocator, b []DynInst) {
		last := b[len(b)-1].Seq
		if got := alloc.Image().ReadWord(GlobalBase); uint64(got) != last {
			mu.Lock()
			bad++
			mu.Unlock()
		}
	})
	for r, o := range out {
		if o.err != nil {
			t.Fatalf("reader %d: %v", r, o.err)
		}
	}
	if bad > 0 {
		t.Fatalf("%d batches handed off away from their boundary", bad)
	}
}

// TestSharedGenReaderDetaches: a reader that stops early detaches with
// the counts of the stream it was handed, as a solo generator's Stop
// reports them, while the other reader drains the whole stream.
func TestSharedGenReaderDetaches(t *testing.T) {
	kern := loopKernel(3 * BatchSize)
	full, _, fullStats := drainWith(t, kern, GenOptions{})

	solo := NewGen(heap.New(mem.NewImage()), kern)
	solo.NextBatch()
	solo.Stop()
	soloStats := solo.Stats()

	gens := NewGenShared(heap.New(mem.NewImage()), kern, GenOptions{}, 2)
	var wg sync.WaitGroup
	var rest []DynInst
	var restStats Stats
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			b, _ := gens[1].NextBatch()
			if b == nil {
				break
			}
			rest = append(rest, b...)
		}
		restStats = gens[1].Stats()
	}()
	gens[0].NextBatch()
	gens[0].Stop()
	gens[0].Stop() // idempotent
	if b, _ := gens[0].NextBatch(); b != nil {
		t.Error("a stopped reader still receives batches")
	}
	wg.Wait()
	if got := gens[0].Stats(); got != soloStats {
		t.Errorf("detached reader stats %+v, solo Stop %+v", got, soloStats)
	}
	if !reflect.DeepEqual(rest, full) || restStats != fullStats {
		t.Error("the attached reader lost part of the stream when the other detached")
	}
}

// TestSharedGenPanicReachesEveryReader: a kernel panic surfaces in each
// reader, as it does in a solo generator.
func TestSharedGenPanicReachesEveryReader(t *testing.T) {
	kern := func(a *Asm) {
		for i := 0; i < BatchSize+10; i++ {
			a.Nop(100)
		}
		panic("kernel bug")
	}
	for r, o := range drainShared(kern, GenOptions{}, 2, nil) {
		if s, _ := o.err.(string); !strings.Contains(s, "kernel bug") {
			t.Errorf("reader %d: recovered %v, want the kernel panic", r, o.err)
		}
	}
}

// TestSharedGenStopsWhenAllReadersStop: the kernel goroutine of an
// endless stream unwinds once every reader has stopped, including a
// reader that stops before it received any batch.
func TestSharedGenStopsWhenAllReadersStop(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		gens := NewGenShared(heap.New(mem.NewImage()), func(a *Asm) {
			for {
				a.Nop(100)
			}
		}, GenOptions{}, 2)
		gens[1].Stop()
		gens[0].NextBatch()
		gens[0].Stop()
	}
	for try := 0; ; try++ {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if try >= 100 {
			t.Fatalf("goroutines: %d before, %d after 20 stopped shared streams", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
