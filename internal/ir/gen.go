package ir

import "repro/internal/heap"

// BatchSize is the number of instructions handed from the kernel
// goroutine to the timing model at a time.  It bounds how far the
// functional execution (and therefore the memory image) can run ahead of
// the timing model: prefetch engines may observe stores up to one batch
// early.  That skew moves simulated results (cooperative-scheme
// speedups change when the batch shrinks); DESIGN.md §1 and the
// ROADMAP's run-ahead item record the measurement and the fix.
const BatchSize = 4096

// stopGen is the panic value used to unwind a kernel goroutine when the
// consumer stops early.
type stopGen struct{}

// batchMsg is one batch handoff: the decoded instructions plus their
// per-instruction dispatch metadata.
type batchMsg struct {
	ins  []DynInst
	meta []InstMeta
}

// Gen produces a workload's dynamic instruction stream.  The kernel
// function runs on its own goroutine, but execution is strictly
// ping-pong: while the consumer drains a batch the kernel is blocked, so
// the memory image is never accessed concurrently.
//
// NewGenShared hands one kernel execution to several readers, each a
// Gen of its own.  The handoff stays strict: the kernel gives each batch
// to the readers in turn, waits until each has drained it, and only then
// emits the next batch.  So every reader sees the memory image at the
// same batch boundary as a generator of its own would show it, and at
// most one of the goroutines runs at a time.
type Gen struct {
	ch   chan batchMsg
	ack  chan struct{}
	quit chan struct{}

	asm *Asm
	// shared marks a reader of NewGenShared: Stop detaches it and leaves
	// the kernel to the other readers.
	shared bool

	cur     []DynInst
	curMeta []InstMeta
	pos     int
	done    bool

	stats   Stats
	kernErr any
}

// GenOptions configures a generator.
type GenOptions struct {
	// DisableReplay turns off the decoded basic-block replay cache,
	// forcing the per-instruction emission path: every instruction's
	// dispatch metadata is then decoded live.  The emitted stream, its
	// metadata and the accounting are identical either way; only the
	// replay counters in Stats stay zero.  cpu.Config.DisableBlockReplay
	// is the machine-level spelling the harness forwards here.
	DisableReplay bool
}

// NewGen starts a kernel and returns its instruction stream with block
// replay enabled.  The kernel must emit at least one instruction before
// returning.
func NewGen(alloc *heap.Allocator, kernel func(*Asm)) *Gen {
	return NewGenWith(alloc, kernel, GenOptions{})
}

// NewGenWith is NewGen with explicit options.
func NewGenWith(alloc *heap.Allocator, kernel func(*Asm), opt GenOptions) *Gen {
	return startGen(alloc, kernel, opt, 1, false)[0]
}

// NewGenShared starts one kernel execution and returns its instruction
// stream once per reader (readers >= 1).  Each returned Gen is consumed
// like NewGenWith's, on a goroutine of its own; all of them see the
// same instructions and metadata, and each batch's handoff happens at
// the same stream position as in a generator of its own.  A reader that
// stops early detaches, and the kernel carries on for the others; it
// unwinds once every reader has stopped.  A kernel panic reaches every
// reader still attached.  All readers report the same Stats, except
// that a detached one counts only the instructions it was handed.
func NewGenShared(alloc *heap.Allocator, kernel func(*Asm), opt GenOptions, readers int) []*Gen {
	return startGen(alloc, kernel, opt, readers, true)
}

// startGen starts the kernel goroutine and returns its readers.
func startGen(alloc *heap.Allocator, kernel func(*Asm), opt GenOptions, readers int, shared bool) []*Gen {
	gs := make([]*Gen, readers)
	for i := range gs {
		gs[i] = &Gen{
			ch:     make(chan batchMsg),
			ack:    make(chan struct{}),
			quit:   make(chan struct{}),
			shared: shared,
		}
	}
	// send hands a filled batch to each attached reader in turn and
	// blocks until that reader has drained it (the ack); the Asm owns
	// the batch buffer and writes decoded instructions straight into it
	// (see Asm.slot).  live is the kernel goroutine's own list of the
	// readers that have not stopped.
	live := append([]*Gen(nil), gs...)
	send := func(batch []DynInst, meta []InstMeta) {
		msg := batchMsg{ins: batch, meta: meta}
		n := 0
		for _, g := range live {
			if g.deliver(msg) {
				live[n] = g
				n++
			}
		}
		live = live[:n]
		if n == 0 {
			panic(stopGen{})
		}
	}
	asm := newAsm(alloc, send, !opt.DisableReplay)
	for _, g := range gs {
		g.asm = asm
	}
	go func() {
		defer func() {
			for _, g := range gs {
				close(g.ch)
			}
		}()
		defer func() {
			if r := recover(); r != nil {
				if _, stopped := r.(stopGen); !stopped {
					for _, g := range gs {
						g.kernErr = r
					}
				}
			}
		}()
		kernel(asm)
		asm.flushTail()
	}()
	return gs
}

// deliver hands one batch to the reader g and blocks until g has
// drained it.  It reports false when g stopped instead.
func (g *Gen) deliver(msg batchMsg) bool {
	select {
	case g.ch <- msg:
	case <-g.quit:
		return false
	}
	select {
	case <-g.ack:
		return true
	case <-g.quit:
		return false
	}
}

// Next returns the next dynamic instruction, or nil when the kernel has
// finished.  The returned pointer is valid only until the following
// BatchSize'th call.
func (g *Gen) Next() *DynInst {
	if g.pos < len(g.cur) {
		d := &g.cur[g.pos]
		g.pos++
		return d
	}
	if g.done {
		return nil
	}
	if g.cur != nil {
		// Let the kernel refill.
		g.ack <- struct{}{}
	}
	b, ok := <-g.ch
	if !ok {
		g.done = true
		g.finish()
		return nil
	}
	g.cur, g.curMeta, g.pos = b.ins, b.meta, 1
	return &g.cur[0]
}

// NextBatch returns all not-yet-delivered instructions of the current
// batch together with their dispatch metadata, requesting a refill from
// the kernel when the batch is exhausted.  It returns nil slices when
// the kernel has finished.  The batch refill happens at exactly the
// same stream position as under Next, so the memory-image run-ahead
// the prefetch engines observe is identical in both modes.  The
// returned slices are valid until the next NextBatch (or Next) call
// that crosses a batch boundary.
func (g *Gen) NextBatch() ([]DynInst, []InstMeta) {
	if g.pos < len(g.cur) {
		ins, meta := g.cur[g.pos:], g.curMeta[g.pos:]
		g.pos = len(g.cur)
		return ins, meta
	}
	if g.done {
		return nil, nil
	}
	if g.cur != nil {
		g.ack <- struct{}{}
	}
	b, ok := <-g.ch
	if !ok {
		g.done = true
		g.finish()
		return nil, nil
	}
	g.cur, g.curMeta = b.ins, b.meta
	g.pos = len(b.ins)
	return b.ins, b.meta
}

func (g *Gen) finish() {
	g.stats = g.asm.stats()
	if g.kernErr != nil {
		panic(g.kernErr)
	}
}

// Stop abandons the stream, unwinding the kernel goroutine.  Safe to
// call at any point, including after exhaustion.  A reader of
// NewGenShared detaches instead, and the kernel runs on for the other
// readers.
func (g *Gen) Stop() {
	if g.done {
		return
	}
	g.done = true
	if g.shared {
		// A reader that holds a batch has not acked it, so the kernel
		// is parked on this reader and the counts are those of the
		// stream delivered so far.  A reader that never got a batch
		// (its core failed to start) reports none.
		if g.cur != nil {
			g.stats = g.asm.stats()
		}
		close(g.quit)
		return
	}
	close(g.quit)
	// Drain until the kernel goroutine exits: with quit closed, an
	// in-flight send on ch either completes (and is discarded here) or
	// selects quit, and the following ack wait always selects quit, so
	// the goroutine unwinds after at most one more batch.  No acks are
	// needed — sending them here would only race the quit path.
	for range g.ch {
	}
	g.stats = g.asm.stats()
}

// Stats reports what the kernel emitted.  Valid after Next has returned
// nil (or after Stop).
func (g *Gen) Stats() Stats { return g.stats }
