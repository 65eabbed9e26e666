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
// per-instruction dispatch metadata (nil when block replay is
// disabled).
type batchMsg struct {
	ins  []DynInst
	meta []InstMeta
}

// Gen produces a workload's dynamic instruction stream.  The kernel
// function runs on its own goroutine, but execution is strictly
// ping-pong: while the consumer drains a batch the kernel is blocked, so
// the memory image is never accessed concurrently.
type Gen struct {
	ch   chan batchMsg
	ack  chan struct{}
	quit chan struct{}

	asm *Asm

	cur     []DynInst
	curMeta []InstMeta
	pos     int
	done    bool
	hasMeta bool

	stats   Stats
	kernErr any
}

// GenOptions configures a generator.
type GenOptions struct {
	// DisableReplay turns off the decoded basic-block replay cache (and
	// with it the per-instruction dispatch metadata), forcing the
	// per-instruction emission path.  The emitted stream and accounting
	// are identical either way.
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
	g := &Gen{
		ch:      make(chan batchMsg),
		ack:     make(chan struct{}),
		quit:    make(chan struct{}),
		hasMeta: !opt.DisableReplay,
	}
	// send hands a filled batch to the consumer and blocks until it has
	// been drained (the ack); the Asm owns the batch buffer and writes
	// decoded instructions straight into it (see Asm.slot).
	send := func(batch []DynInst, meta []InstMeta) {
		select {
		case g.ch <- batchMsg{ins: batch, meta: meta}:
		case <-g.quit:
			panic(stopGen{})
		}
		select {
		case <-g.ack:
		case <-g.quit:
			panic(stopGen{})
		}
	}
	g.asm = newAsm(alloc, send, !opt.DisableReplay)
	go func() {
		defer close(g.ch)
		defer func() {
			if r := recover(); r != nil {
				if _, stopped := r.(stopGen); !stopped {
					g.kernErr = r
				}
			}
		}()
		kernel(g.asm)
		g.asm.flushTail()
	}()
	return g
}

// HasMeta reports whether the stream carries per-instruction dispatch
// metadata (block replay enabled), i.e. whether NextBatch returns a
// metadata slice the core's block-granular front end can consume.
func (g *Gen) HasMeta() bool { return g.hasMeta }

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
		ins := g.cur[g.pos:]
		meta := g.curMeta
		if meta != nil {
			meta = meta[g.pos:]
		}
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
// call at any point, including after exhaustion.
func (g *Gen) Stop() {
	if g.done {
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
	g.done = true
	g.stats = g.asm.stats()
}

// Stats reports what the kernel emitted.  Valid after Next has returned
// nil (or after Stop).
func (g *Gen) Stats() Stats { return g.stats }
