package dbp

import (
	"repro/internal/cache"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/mem"
)

// Config sizes the prefetch engine.  Defaults() matches Table 2.
type Config struct {
	PPWEntries      int
	DPEntries       int
	DPAssoc         int
	PRQEntries      int
	QueriesPerCycle int
	// MaxChainDepth bounds how far a single chain of completed
	// prefetches may extend past the triggering access.  Chains run
	// through cache-resident nodes without issuing memory requests, so
	// the cap is what keeps the greedy chaser from sweeping whole
	// structures on every trigger; one jump interval is the natural
	// setting.
	MaxChainDepth int
}

// Defaults returns the paper's Table 2 DBP configuration.
func Defaults() Config {
	return Config{
		PPWEntries:      64,
		DPEntries:       256,
		DPAssoc:         4,
		PRQEntries:      8,
		QueriesPerCycle: 2,
		MaxChainDepth:   8,
	}
}

// Stats counts engine activity.
type Stats struct {
	Trained        uint64
	JumpTrained    uint64
	ChaseQueries   uint64
	Requested      uint64
	PRQDrops       uint64
	DedupDrops     uint64
	IssuedPrefetch uint64
	DroppedPresent uint64
}

// Engine is the dependence-based prefetch engine.  It also serves as
// the chained-prefetching half of the cooperative JPP implementation:
// software jump-pointer prefetches flagged ir.FJumpChase feed the
// chaser with the pointer they fetched, and a dedicated producer window
// lets the dependence predictor learn jump-prefetch -> LDS-load edges
// (paper §3.2).
type Engine struct {
	cfg  Config
	hier *cache.Hierarchy
	img  *mem.Image
	heap *heap.Allocator

	ppw     *PPW
	jumpPPW *PPW
	dp      *DepPredictor

	// lineMask is the hierarchy's cache-line mask, cached at
	// construction (LineBytes never changes after cache.New) so the
	// per-request dedup path does not re-derive it.
	lineMask uint32

	// prq is a fixed-capacity FIFO ring (cap PRQEntries): prqHead is
	// the index of the oldest request and prqLen the occupancy.  A ring
	// replaces the slice shift that used to copy the whole queue on
	// every issued prefetch.
	prq     []prqReq // len is cfg.PRQEntries rounded up to a power of two
	prqMask int
	prqHead int
	prqLen  int

	// arrivals holds the issued prefetches whose data has not yet
	// reached the chaser.
	arrivals arrivalQueue

	queryQuota int
	depBuf     []Dep // scratch for ChaseFrom's predictor queries

	s Stats
}

type prqReq struct {
	addr  uint32
	pc    uint32
	depth int
	// conts are piggybacked continuations: requests for the same line
	// whose (addr, pc) differ, so the chase can branch correctly once
	// the line arrives without issuing duplicate memory requests.  A
	// fixed inline array (bounded at 3 by EnqueuePrefetch) keeps the
	// hot enqueue/issue path allocation-free.
	conts  [3]cont
	nconts uint8
}

type cont struct {
	addr  uint32
	pc    uint32
	depth int
}

// NewEngine builds a DBP engine over the given hierarchy and heap.
func NewEngine(cfg Config, hier *cache.Hierarchy, alloc *heap.Allocator) *Engine {
	e := &Engine{
		cfg:      cfg,
		hier:     hier,
		img:      alloc.Image(),
		heap:     alloc,
		lineMask: ^uint32(hier.LineBytes() - 1),
		ppw:      NewPPW(cfg.PPWEntries),
		jumpPPW:  NewPPW(cfg.PPWEntries * 2),
		dp:       NewDepPredictor(cfg.DPEntries, cfg.DPAssoc),
		prq:      make([]prqReq, ceilPow2(cfg.PRQEntries)),
	}
	e.prqMask = len(e.prq) - 1
	e.arrivals.init(hier.LineBytes())
	return e
}

// ceilPow2 rounds n up to a power of two so the PRQ ring can index
// with a mask instead of a modulo.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// DP exposes the dependence predictor (the hardware JPP engine inspects
// it for recurrence detection).
func (e *Engine) DP() *DepPredictor { return e.dp }

// Heap returns the simulated allocator.
func (e *Engine) Heap() *heap.Allocator { return e.heap }

// Image returns the simulated memory image.
func (e *Engine) Image() *mem.Image { return e.img }

// Stats returns a snapshot of engine counters.
func (e *Engine) Stats() Stats { return e.s }

// CacheRequests reports the engine's KPref accesses at the hierarchy
// choke point, split into requests that initiated fills and requests
// discarded because the line was already present or in flight.  Their
// sum equals the engine's share of the stats.Tracker Issued count (the
// prefetch registry's Requester contract).
func (e *Engine) CacheRequests() (issued, dropped uint64) {
	return e.s.IssuedPrefetch, e.s.DroppedPresent
}

// TrainLoad runs PPW training for a committed load and returns the
// producer PC, if one was found.
func (e *Engine) TrainLoad(d *ir.DynInst) (producer uint32, ok bool) {
	if e.heap.Contains(d.BaseValue) {
		if pc, hit := e.jumpPPW.Lookup(d.BaseValue); hit {
			e.dp.Insert(pc, d.PC, d.Addr-d.BaseValue)
			e.s.JumpTrained++
		}
		if pc, hit := e.ppw.Lookup(d.BaseValue); hit {
			e.dp.Insert(pc, d.PC, d.Addr-d.BaseValue)
			e.s.Trained++
			producer, ok = pc, true
		}
	}
	if e.heap.Contains(d.Value) {
		e.ppw.Insert(d.Value, d.PC)
	}
	return producer, ok
}

// ChaseFrom queries the dependence predictor with (pc -> value) and
// enqueues prefetches for every known consumer.
func (e *Engine) ChaseFrom(pc, value uint32, depth int) {
	if !e.heap.Contains(value) || depth > e.cfg.MaxChainDepth {
		return
	}
	if e.queryQuota <= 0 {
		return
	}
	e.queryQuota--
	e.s.ChaseQueries++
	// depBuf is reusable scratch: EnqueuePrefetch never re-queries the
	// predictor, so the buffer is not live across the recursion.
	e.depBuf = e.dp.QueryInto(pc, e.depBuf[:0])
	for _, dep := range e.depBuf {
		e.EnqueuePrefetch(value+dep.Offset, dep.ConsumerPC, depth+1)
	}
}

// EnqueuePrefetch routes a prefetch request.  A line already queued or
// in flight is not requested twice: the new (addr, pc) piggybacks as a
// continuation so the chase still branches correctly when the line
// arrives.  Everything else passes through the PRQ and probes the cache
// when a port is free.
func (e *Engine) EnqueuePrefetch(addr, pc uint32, depth int) {
	if depth > e.cfg.MaxChainDepth {
		return
	}
	mask := e.lineMask
	line := addr & mask
	for i := 0; i < e.prqLen; i++ {
		r := &e.prq[(e.prqHead+i)&e.prqMask]
		if r.addr&mask != line {
			continue
		}
		e.s.DedupDrops++
		if (r.pc != pc || r.addr != addr) && int(r.nconts) < len(r.conts) {
			r.conts[r.nconts] = cont{addr: addr, pc: pc, depth: depth}
			r.nconts++
		}
		return
	}
	// During Tick the match may be an arrival already processed in the
	// same Tick (see arrivalQueue's in-Tick dedup rule).
	if a := e.arrivals.match(line); a != nil {
		e.s.DedupDrops++
		if a.pc != pc || a.addr != addr {
			e.arrivals.add(arrival{
				done: a.done, addr: addr, pc: pc, depth: depth,
			})
		}
		return
	}
	if e.prqLen >= e.cfg.PRQEntries {
		e.s.PRQDrops++
		return
	}
	e.prq[(e.prqHead+e.prqLen)&e.prqMask] = prqReq{addr: addr, pc: pc, depth: depth}
	e.prqLen++
	e.s.Requested++
}

// --- cpu.PrefetchEngine implementation -------------------------------

// OnLoadIssue is a no-op for plain DBP (the hardware JPP engine
// overrides it to access the JPR).
func (e *Engine) OnLoadIssue(now uint64, d *ir.DynInst) {}

// OnLoadComplete chases consumers of a completed demand load.
func (e *Engine) OnLoadComplete(now uint64, d *ir.DynInst) {
	if d.Flags&ir.FLDS != 0 {
		e.ChaseFrom(d.PC, d.Value, 0)
	}
}

// OnCommit trains the predictor in program order.
func (e *Engine) OnCommit(now uint64, d *ir.DynInst) {
	if d.Class == ir.Load {
		e.TrainLoad(d)
	}
}

// OnSWPrefetch observes a software prefetch that the core issued to the
// hierarchy (completing at done).  Jump-chase prefetches additionally
// deliver the jump-pointer word to the chaser when they arrive.
func (e *Engine) OnSWPrefetch(now uint64, d *ir.DynInst, done uint64) {
	if d.Flags&ir.FJumpChase == 0 {
		return
	}
	e.arrivals.add(arrival{
		done: done, addr: d.Addr, pc: d.PC, depth: 0, jumpWord: true,
	})
}

// NextEventAt reports the earliest cycle strictly after now at which
// the engine could act on its own: the next Tick when requests are
// queued in the PRQ (or arrivals are already due), else a lower bound
// on the earliest pending-prefetch completion.  ^uint64(0) means the
// engine is idle until the core feeds it again.
func (e *Engine) NextEventAt(now uint64) uint64 {
	if e.prqLen > 0 || e.arrivals.hasDue() {
		// Queued requests, or arrivals the query quota deferred.
		return now + 1
	}
	if b := e.arrivals.wheelMin; b > now {
		return b
	}
	// An arrival completes at now itself.
	return now + 1
}

// Tick advances the engine one cycle: completed prefetches chase
// further, and queued requests issue into idle cache ports.  It returns
// the number of ports consumed.
func (e *Engine) Tick(now uint64, freePorts int) int {
	e.queryQuota = e.cfg.QueriesPerCycle
	e.arrivals.advance(now)
	if e.arrivals.hasDue() {
		e.processArrivals()
	}
	if e.prqLen == 0 {
		return 0
	}
	return e.issuePRQ(now, freePorts)
}

// processArrivals chases the due arrivals, oldest first, while the
// query quota lasts.  Chasing can append continuations of resident
// lines; one with a past done is processed later in this same Tick if
// quota remains.
func (e *Engine) processArrivals() {
	for e.queryQuota > 0 {
		a, ok := e.arrivals.next()
		if !ok {
			break
		}
		value := e.img.ReadWord(a.addr)
		if a.jumpWord {
			// The fetched word is a pointer to a future node: remember
			// it as a potential producer so the predictor learns
			// jump-prefetch -> LDS-load edges, and chase it now.
			e.jumpPPW.Insert(value, a.pc)
			// The target node block itself is what jump-pointer
			// prefetching exists to fetch; request it even before any
			// edges are learned.
			if e.heap.Contains(value) {
				e.EnqueuePrefetch(value, a.pc, a.depth+1)
			}
		}
		e.ChaseFrom(a.pc, value, a.depth)
	}
	e.arrivals.endTick()
}

// issuePRQ drains queued prefetch requests into idle cache ports.
func (e *Engine) issuePRQ(now uint64, freePorts int) int {
	used := 0
	for used < freePorts && e.prqLen > 0 {
		r := e.prq[e.prqHead]
		e.prqHead = (e.prqHead + 1) & e.prqMask
		e.prqLen--
		res := e.hier.AccessData(now, r.addr, cache.KPref)
		used++
		if res.Dropped {
			// The line is already resident: the request is discarded
			// with no completion event, so the chain ends here — real
			// DBP gets no response packet to feed the predictor with.
			e.s.DroppedPresent++
			continue
		}
		e.s.IssuedPrefetch++
		e.arrivals.add(arrival{
			done: res.Done, addr: r.addr, pc: r.pc, depth: r.depth,
		})
		for _, c := range r.conts[:r.nconts] {
			e.arrivals.add(arrival{
				done: res.Done, addr: c.addr, pc: c.pc, depth: c.depth,
			})
		}
	}
	return used
}
