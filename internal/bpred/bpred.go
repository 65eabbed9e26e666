// Package bpred implements the paper's Table 2 branch predictor: an 8K
// entry combined predictor (10-bit-history gshare and 2-bit bimodal
// components with a selector) plus a 2K-entry 4-way associative branch
// target buffer.  Returns are assumed perfectly predicted (standing in
// for a return-address stack, which the paper does not detail).
package bpred

import "fmt"

// Config sizes the predictor.
type Config struct {
	// Entries is the table size of each component (8K in Table 2).
	Entries int
	// HistoryBits is the gshare global history length (10).
	HistoryBits int
	// BTBEntries and BTBAssoc size the target buffer (2K, 4-way).
	BTBEntries int
	BTBAssoc   int
}

// Defaults returns the Table 2 configuration.
func Defaults() Config {
	return Config{Entries: 8192, HistoryBits: 10, BTBEntries: 2048, BTBAssoc: 4}
}

// Predictor is a combined gshare/bimodal predictor with a BTB.
type Predictor struct {
	cfg     Config
	bimodal []uint8 // 2-bit counters
	gshare  []uint8 // 2-bit counters
	chooser []uint8 // 2-bit: >=2 selects gshare
	history uint32
	histMsk uint32
	idxMask uint32

	// btb is the target buffer as one flat array: the ways of set s
	// occupy btb[s*cfg.BTBAssoc : (s+1)*cfg.BTBAssoc].
	btb     []btbEntry
	btbMask uint32 // set count - 1
	btbTick uint32

	lookups     uint64
	dirMispred  uint64
	btbMisses   uint64
	condBr      uint64
	takenBr     uint64
	jumpLookups uint64
}

// btbEntry is one BTB way: 16 bytes.  lru is the entry's recency stamp
// from the predictor's 32-bit BTB clock (see btbAdvance).
type btbEntry struct {
	tag    uint32
	target uint32
	lru    uint32
	valid  bool
}

// New builds a predictor.  It panics, naming the field, if a table it
// indexes by mask — Entries or the BTB set count BTBEntries/BTBAssoc —
// is not a nonzero power of two.
func New(cfg Config) *Predictor {
	pow2 := func(n int) bool { return n > 0 && n&(n-1) == 0 }
	if !pow2(cfg.Entries) {
		panic(fmt.Sprintf("bpred: Entries = %d, must be a nonzero power of two", cfg.Entries))
	}
	if a := cfg.BTBAssoc; a <= 0 || cfg.BTBEntries%a != 0 || !pow2(cfg.BTBEntries/a) {
		panic(fmt.Sprintf("bpred: BTB set count BTBEntries/BTBAssoc = %d/%d, must be a nonzero power of two", cfg.BTBEntries, a))
	}
	p := &Predictor{
		cfg:     cfg,
		bimodal: make([]uint8, cfg.Entries),
		gshare:  make([]uint8, cfg.Entries),
		chooser: make([]uint8, cfg.Entries),
		histMsk: (1 << uint(cfg.HistoryBits)) - 1,
		idxMask: uint32(cfg.Entries - 1),
	}
	for i := range p.bimodal {
		p.bimodal[i] = 1 // weakly not-taken
		p.gshare[i] = 1
		p.chooser[i] = 1 // weakly bimodal
	}
	p.btb = make([]btbEntry, cfg.BTBEntries)
	p.btbMask = uint32(cfg.BTBEntries/cfg.BTBAssoc - 1)
	return p
}

func (p *Predictor) indices(pc uint32) (bi, gi uint32) {
	word := pc >> 2
	bi = word & p.idxMask
	gi = (word ^ p.history&p.histMsk) & p.idxMask
	return
}

func counterTaken(c uint8) bool { return c >= 2 }

func bump(c uint8, taken bool) uint8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// PredictCond predicts a conditional branch at pc and immediately
// updates with the actual outcome and target (the timing model applies
// the misprediction penalty; the predictor state is maintained in
// commit order because the trace is the committed path).
// It reports whether direction and target were both predicted correctly.
func (p *Predictor) PredictCond(pc uint32, taken bool, target uint32) bool {
	p.lookups++
	p.condBr++
	if taken {
		p.takenBr++
	}
	bi, gi := p.indices(pc)
	bPred := counterTaken(p.bimodal[bi])
	gPred := counterTaken(p.gshare[gi])
	useG := counterTaken(p.chooser[bi])
	pred := bPred
	if useG {
		pred = gPred
	}

	correct := pred == taken
	if taken {
		// A taken branch also needs its target from the BTB to redirect
		// fetch without a bubble; train it on every taken instance.
		if !p.btbLookup(pc, target) && correct {
			correct = false
		}
	}
	if !correct {
		p.dirMispred++
	}

	// Update components and chooser.
	if bPred != gPred {
		p.chooser[bi] = bump(p.chooser[bi], gPred == taken)
	}
	p.bimodal[bi] = bump(p.bimodal[bi], taken)
	p.gshare[gi] = bump(p.gshare[gi], taken)
	p.history = (p.history << 1) & p.histMsk
	if taken {
		p.history |= 1
	}
	return correct
}

// PredictJump predicts an unconditional jump/call at pc.  Direct jumps
// still need a BTB hit to redirect fetch without penalty.
func (p *Predictor) PredictJump(pc uint32, target uint32) bool {
	p.lookups++
	p.jumpLookups++
	return p.btbLookup(pc, target)
}

// btbLookup probes and trains the BTB; reports whether pc hit with the
// right target.
func (p *Predictor) btbLookup(pc uint32, target uint32) bool {
	now := p.btbAdvance()
	set := (pc >> 2) & p.btbMask
	tag := (pc >> 2) / (p.btbMask + 1)
	assoc := p.cfg.BTBAssoc
	ways := p.btb[int(set)*assoc : int(set+1)*assoc]
	victim := &ways[0]
	for i := range ways {
		e := &ways[i]
		if e.valid && e.tag == tag {
			e.lru = now
			hit := e.target == target
			if !hit {
				p.btbMisses++
			}
			e.target = target
			return hit
		}
		if !e.valid {
			victim = e
		} else if victim.valid && e.lru < victim.lru {
			victim = e
		}
	}
	p.btbMisses++
	*victim = btbEntry{tag: tag, target: target, lru: now, valid: true}
	return false
}

// btbAdvance steps the BTB clock and returns the stamp for this lookup.
func (p *Predictor) btbAdvance() uint32 {
	p.btbTick++
	if p.btbTick == 0 {
		p.btbRewind()
	}
	return p.btbTick
}

// btbRewind runs when the BTB clock wraps, with the rule the cache tag
// arrays use: replacement only compares the stamps of valid ways within
// one set, so each set's stamps become their ranks in that set (0 for
// its oldest way) and the clock resumes at BTBAssoc, above every rank.
// Every later hit and victim is the one an unbounded clock picks.
//
//go:noinline
func (p *Predictor) btbRewind() {
	assoc := p.cfg.BTBAssoc
	rank := make([]uint32, assoc)
	for base := 0; base < len(p.btb); base += assoc {
		ways := p.btb[base : base+assoc]
		for i := range ways {
			rank[i] = 0
			for j := range ways {
				if ways[j].valid && ways[j].lru < ways[i].lru {
					rank[i]++
				}
			}
		}
		for i := range ways {
			ways[i].lru = rank[i]
		}
	}
	p.btbTick = uint32(assoc)
}

// Stats reports predictor activity.
type Stats struct {
	CondBranches uint64
	TakenShare   float64
	Mispredicts  uint64
	BTBMisses    uint64
}

// Stats returns a snapshot.
func (p *Predictor) Stats() Stats {
	s := Stats{CondBranches: p.condBr, Mispredicts: p.dirMispred, BTBMisses: p.btbMisses}
	if p.condBr > 0 {
		s.TakenShare = float64(p.takenBr) / float64(p.condBr)
	}
	return s
}
