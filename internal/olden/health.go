package olden

import (
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/ir"
)

// health models the Olden hierarchical health-care simulator: a 4-ary
// tree of villages, each with a waiting list of patients.  Every
// simulation step visits all villages bottom-up and scans each waiting
// list (check_patients_waiting, paper Figure 2), removing some patients
// and admitting new ones, so the lists are long-lived but continuously
// mutating.  The list-node and patient loads dominate the cache misses,
// exactly as in the paper.
//
// Layouts (payload bytes; blocks round up to power-of-two classes):
//
//	village:   waiting(0) nextVisit(4) level(8)            = 12 -> 16
//	list node: patient(0) forward(4) back(8) [jump(12)]    = 12 -> 16
//	           full jumping adds jumpRib(16)               = 20 -> 32
//	patient:   time(0) id(4) status(8)                     = 12 -> 16
const (
	hvWaiting = 0
	hvNext    = 4

	hlPatient = 0
	hlForward = 4
	hlJump    = 12
	hlJumpRib = 16

	hpTime = 0
	hpID   = 4
)

// Static sites for health.
const (
	hsBuild = ir.FirstUserSite + iota*8
	hsAdd
	hsWalk
	hsWalk2
	hsMut
	hsIdiom
	hsIdiom2
	hsQueue // SWJumpQueueSites
	hsEnd
)

func init() {
	Register(FamilyOlden, &Benchmark{
		Name:        "health",
		Description: "hierarchical health-care system simulation",
		Structures:  "village tree + dynamic doubly-linked patient lists",
		Behavior:    "lists traversed every timestep, mutated continuously",
		Idioms:      []core.Idiom{core.IdiomChain, core.IdiomRoot, core.IdiomQueue, core.IdiomFull},
		Traversals:  500,
		Kernel:      healthKernel,
	})
}

type healthCfg struct {
	levels      int
	initPerV    int
	iters       int
	mutateDenom int
}

func healthSizes(s Size) healthCfg {
	switch s {
	case SizeTest:
		return healthCfg{levels: 1, initPerV: 6, iters: 2, mutateDenom: 8}
	case SizeSmall:
		return healthCfg{levels: 3, initPerV: 16, iters: 3, mutateDenom: 8}
	case SizeLarge:
		// ~1400 villages: ~4x the full list+patient data (~1MB).
		return healthCfg{levels: 5, initPerV: 11, iters: 9, mutateDenom: 8}
	default:
		// ~340 villages x 15 patients x 48B = ~0.25MB of list+patient
		// data: far beyond the 64KB L1 (every list/patient access is an
		// L1 miss) while staying L2-resident enough that the memory bus
		// keeps headroom — the regime in which latency, not bandwidth,
		// limits the baseline, as the paper's results imply.
		return healthCfg{levels: 4, initPerV: 11, iters: 9, mutateDenom: 8}
	}
}

func healthKernel(p Params) func(*ir.Asm) {
	cfg := healthSizes(p.Size)
	idiom := p.SWIdiom(core.IdiomChain)
	coop := p.Coop()
	nodeBytes := uint32(12)
	if idiom == core.IdiomFull {
		nodeBytes = 20 // room for the second jump-pointer
	}

	return func(a *ir.Asm) {
		r := NewRNG(0x9e3779b9)

		// ---- build: villages in post-order (the visit order) ----
		// Each village is a locality domain with its own arena, as in
		// Olden's distributed-memory allocation discipline: the lists
		// stay page-dense even as churn scrambles their node order.
		var villages []ir.Val
		var arenas []heap.ArenaID
		arenaOf := map[uint32]heap.ArenaID{}
		var build func(level int)
		build = func(level int) {
			if level > 0 {
				for i := 0; i < 4; i++ {
					build(level - 1)
				}
			}
			ar := a.Heap().NewArena()
			v := a.MallocIn(ar, 12)
			villages = append(villages, v)
			arenas = append(arenas, ar)
			arenaOf[v.U32()] = ar
		}
		build(cfg.levels)
		for i := 0; i+1 < len(villages); i++ {
			a.Store(hsBuild, villages[i], hvNext, villages[i+1])
		}

		addPatient := func(v ir.Val) {
			ar := arenaOf[v.U32()]
			n := a.MallocIn(ar, nodeBytes)
			pt := a.MallocIn(ar, 20) // time, id, hosps, ... -> class 32
			a.Store(hsAdd, pt, hpTime, ir.Imm(uint32(r.Intn(8))))
			a.Store(hsAdd+1, pt, hpID, ir.Imm(r.Next()))
			a.Store(hsAdd+2, n, hlPatient, pt)
			head := a.Load(hsAdd+3, v, hvWaiting, ir.FLDS)
			a.Store(hsAdd+4, n, hlForward, head)
			a.Store(hsAdd+5, v, hvWaiting, n)
		}
		for _, v := range villages {
			for j := 0; j < cfg.initPerV; j++ {
				addPatient(v)
			}
		}

		// Software jump-pointer machinery (chain/queue/full idioms).
		var queue *core.SWJumpQueue
		if idiom == core.IdiomChain || idiom == core.IdiomQueue || idiom == core.IdiomFull {
			queue = core.NewSWJumpQueue(a, hsQueue, 0, p.EffectiveInterval(), hlJump)
		}

		// ---- simulation timesteps ----
		for it := 0; it < cfg.iters; it++ {
			cur := villages[0]
			for vi := range villages {
				var nextV ir.Val
				if vi+1 < len(villages) {
					nextV = villages[vi+1]
				}
				healthWalkList(a, p, idiom, coop, queue, cur, nextV, r, cfg, addPatient)
				if vi+1 < len(villages) {
					cur = a.Load(hsWalk, cur, hvNext, ir.FLDS)
				}
			}
		}
	}
}

// healthWalkList is check_patients_waiting: scan the village's waiting
// list, bumping each patient's time and removing some; removed patients
// are replaced with fresh admissions after the scan (keeping list
// length stationary while churning the allocations).
func healthWalkList(a *ir.Asm, p Params, idiom core.Idiom, coop bool,
	queue *core.SWJumpQueue, v, nextV ir.Val, r *RNG, cfg healthCfg,
	addPatient func(ir.Val)) {

	// Root jumping: grab the next village's list root up front and
	// chain along it while this list is processed (paper Figure 2(e)).
	var rootJ ir.Val
	if idiom == core.IdiomRoot && !nextV.IsNil() && p.PrefetchOn() {
		rootJ = core.JumpPrefetch(a, hsIdiom2, nextV, hvWaiting, coop)
	}

	l := a.Load(hsWalk+1, v, hvWaiting, ir.FLDS)
	var prev ir.Val
	removed := 0
	var jprev ir.Val // previous jump target (software chain pipelining)

	for !l.IsNil() {
		// ---- prefetching idiom code at loop top ----
		if !p.PrefetchOn() {
			goto body
		}
		switch idiom {
		case core.IdiomQueue:
			core.JumpPrefetch(a, hsIdiom, l, hlJump, coop)
		case core.IdiomChain:
			j := core.JumpPrefetch(a, hsIdiom, l, hlJump, coop)
			// Software chains the rib prefetch itself, pipelined one
			// node behind so the binding load finds its block (mostly)
			// arrived.
			if !coop && !jprev.IsNil() {
				a.Overhead(func() {
					pp := a.Load(hsIdiom+2, jprev, hlPatient, 0)
					a.Prefetch(hsIdiom+3, pp, 0, 0)
				})
			}
			jprev = j
		case core.IdiomFull:
			core.JumpPrefetch(a, hsIdiom, l, hlJump, coop)
			// The rib jump pointer: the cooperative and software forms
			// sit at different sites.
			rib := hsIdiom + 2
			if coop {
				rib = hsIdiom + 1
			}
			core.JumpPrefetch(a, rib, l, hlJumpRib, coop)
		case core.IdiomRoot:
			if !coop && !rootJ.IsNil() {
				a.Overhead(func() {
					a.Prefetch(hsIdiom+4, rootJ, 0, 0)
					rootJ = a.Load(hsIdiom+5, rootJ, hlForward, 0)
				})
			}
		}

		// ---- original check_patients_waiting body ----
	body:
		pt := a.Load(hsWalk+2, l, hlPatient, ir.FLDS)
		t := a.Load(hsWalk+3, pt, hpTime, ir.FLDS)
		t2 := a.AddImm(hsWalk+4, t, 1)
		a.Store(hsWalk+5, pt, hpTime, t2)
		// Patient bookkeeping: status checks, triage arithmetic and
		// per-village statistics, as in the original routine.
		id := a.Load(hsMut+4, pt, hpID, ir.FLDS)
		sev := a.Alu(hsMut+5, id.U32()&7, id, ir.Val{})
		a.Branch(hsMut+6, sev.U32() > 4, hsMut+7, sev, t2)
		acc := a.Alu(hsMut+7, sev.U32()+t2.U32(), sev, t2)
		stat := a.LoadGlobal(hsWalk2, 0x40)
		stat2 := a.Alu(hsWalk2+1, stat.U32()+acc.U32(), stat, acc)
		a.StoreGlobal(hsWalk2+2, 0x40, stat2)
		h1 := a.Alu(hsWalk2+3, acc.U32()>>1, acc, ir.Val{})
		h2 := a.Alu(hsWalk2+4, acc.U32()*3, acc, ir.Val{})
		h3 := a.Alu(hsWalk2+5, h1.U32()^h2.U32(), h1, h2)
		h4 := a.Alu(hsWalk2+6, h3.U32()+sev.U32(), h3, sev)
		a.Branch(hsWalk2+7, h4.U32()&1 == 0, hsMut+7, h4, ir.Val{})
		h5 := a.Alu(hsMut+1, h4.U32()>>2, h4, ir.Val{})
		a.Alu(hsIdiom2+6, h5.U32()+t2.U32(), h5, t2)
		a.Alu(hsIdiom2+7, h5.U32()|3, h5, ir.Val{})

		// Jump-pointer creation (queue method) for the queue-based
		// idioms; full jumping also installs the rib pointer.
		if queue != nil {
			if idiom == core.IdiomFull {
				queue.Visit(l, core.FieldStore{Off: hlJumpRib, Val: pt})
			} else {
				queue.Visit(l)
			}
		}

		nxt := a.Load(hsWalk+6, l, hlForward, ir.FLDS)
		remove := r.Intn(cfg.mutateDenom) == 0
		a.Branch(hsMut, remove, hsMut+2, t2, ir.Val{})
		if remove {
			if prev.IsNil() {
				a.Store(hsMut+2, v, hvWaiting, nxt)
			} else {
				a.Store(hsMut+3, prev, hlForward, nxt)
			}
			a.FreeNode(pt)
			a.FreeNode(l)
			removed++
		} else {
			prev = l
		}
		a.Branch(hsWalk+7, !nxt.IsNil(), hsWalk+1, nxt, ir.Val{})
		l = nxt
	}

	// Admissions replace the departed (list length stays stationary,
	// allocations churn).
	for i := 0; i < removed; i++ {
		addPatient(v)
	}
}
