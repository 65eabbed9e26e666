// Package dbp implements dependence-based prefetching (Roth, Moshovos &
// Sohi [16]), which the paper uses both as its comparison baseline and
// as the chained-prefetching hardware inside the cooperative and
// hardware JPP implementations.
//
// The mechanism has three parts (paper §3.2, Table 2):
//
//   - a potential-producer window (PPW) that remembers recently loaded
//     values and the loads that produced them;
//   - a 256-entry, 4-way associative dependence predictor (DP) holding
//     (producer PC -> consumer PC, offset) correlations, allowing two
//     queries per cycle;
//   - an 8-entry prefetch request queue (PRQ) whose requests issue when
//     data-cache ports are idle, filling a prefetch buffer.
//
// Completed prefetches re-query the predictor with the value they
// fetched, chaining down the linked structure.
package dbp

import "math/bits"

// PPW is the potential producer window: a FIFO of the last N (value,
// producerPC) pairs.  Training looks up a load's base address in the
// window; a hit establishes a producer->consumer dependence.
//
// The value->PC index is an open-addressed table (linear probing,
// backward-shift deletion) rather than a Go map: the window holds at
// most N live values and Insert/Lookup run for every committed load, so
// the fixed low-load-factor table keeps training off the map runtime
// entirely.  Value 0 is never inserted and doubles as the empty-slot
// sentinel.
type PPW struct {
	ring  []ppwEntry
	pos   int
	slots []ppwSlot // value -> producer PC (latest wins)
	shift uint
}

type ppwEntry struct {
	value uint32
	valid bool
}

type ppwSlot struct {
	value uint32
	pc    uint32
}

// NewPPW returns a window of n entries.
func NewPPW(n int) *PPW {
	slots := 1
	for slots < 4*n {
		slots <<= 1
	}
	return &PPW{
		ring:  make([]ppwEntry, n),
		slots: make([]ppwSlot, slots),
		shift: 32 - uint(bits.Len(uint(slots-1))),
	}
}

func (w *PPW) home(value uint32) int {
	return int((value * 0x9E3779B1) >> w.shift)
}

// Insert records that pc produced value.
func (w *PPW) Insert(value, pc uint32) {
	if value == 0 {
		return
	}
	old := &w.ring[w.pos]
	if old.valid {
		// Drop the evicted value from the index.  Like the map this
		// replaces, eviction clears the value even when a newer ring
		// entry re-inserted it; goldens depend on that behaviour.
		w.idxDelete(old.value)
	}
	*old = ppwEntry{value: value, valid: true}
	w.idxInsert(value, pc)
	w.pos = (w.pos + 1) % len(w.ring)
}

// Lookup returns the PC that most recently produced value.
func (w *PPW) Lookup(value uint32) (pc uint32, ok bool) {
	mask := len(w.slots) - 1
	for i := w.home(value); w.slots[i].value != 0; i = (i + 1) & mask {
		if w.slots[i].value == value {
			return w.slots[i].pc, true
		}
	}
	return 0, false
}

func (w *PPW) idxInsert(value, pc uint32) {
	mask := len(w.slots) - 1
	i := w.home(value)
	for w.slots[i].value != 0 {
		if w.slots[i].value == value {
			w.slots[i].pc = pc
			return
		}
		i = (i + 1) & mask
	}
	w.slots[i] = ppwSlot{value: value, pc: pc}
}

func (w *PPW) idxDelete(value uint32) {
	mask := len(w.slots) - 1
	i := w.home(value)
	for w.slots[i].value != value {
		if w.slots[i].value == 0 {
			return
		}
		i = (i + 1) & mask
	}
	// Backward-shift deletion: pull later entries of the probe chain
	// over the hole so lookups never need tombstones.
	j := i
	for {
		j = (j + 1) & mask
		e := w.slots[j]
		if e.value == 0 {
			break
		}
		if (j-w.home(e.value))&mask >= (j-i)&mask {
			w.slots[i] = e
			i = j
		}
	}
	w.slots[i] = ppwSlot{}
}

// Dep is one dependence predictor correlation.
type Dep struct {
	ConsumerPC uint32
	Offset     uint32
}

// DepPredictor is the set-associative dependence predictor.
type DepPredictor struct {
	sets  [][]dpEntry
	assoc int
	tick  uint64
}

type dpEntry struct {
	producer uint32
	consumer uint32
	offset   uint32
	lru      uint64
	valid    bool
}

// NewDepPredictor builds a predictor with the given total entries and
// associativity (Table 2: 256 entries, 4-way).
func NewDepPredictor(entries, assoc int) *DepPredictor {
	setsN := entries / assoc
	sets := make([][]dpEntry, setsN)
	backing := make([]dpEntry, entries)
	for i := range sets {
		sets[i] = backing[i*assoc : (i+1)*assoc]
	}
	return &DepPredictor{sets: sets, assoc: assoc}
}

func (d *DepPredictor) set(pc uint32) []dpEntry {
	return d.sets[(pc>>2)&uint32(len(d.sets)-1)]
}

// Insert records the correlation producer -> (consumer, offset).
func (d *DepPredictor) Insert(producer, consumer, offset uint32) {
	d.tick++
	set := d.set(producer)
	victim := &set[0]
	for i := range set {
		e := &set[i]
		if e.valid && e.producer == producer && e.consumer == consumer {
			e.offset = offset
			e.lru = d.tick
			return
		}
		if !e.valid {
			victim = e
		} else if victim.valid && e.lru < victim.lru {
			victim = e
		}
	}
	*victim = dpEntry{producer: producer, consumer: consumer, offset: offset,
		lru: d.tick, valid: true}
}

// Query returns the consumers correlated with producer pc.  The result
// slice is freshly allocated per call only on hits; hot paths should
// use QueryInto with a reusable buffer instead.
func (d *DepPredictor) Query(pc uint32) []Dep {
	return d.QueryInto(pc, nil)
}

// QueryInto appends the consumers correlated with producer pc to buf
// and returns the extended slice, keeping the per-query allocation off
// hot paths.
func (d *DepPredictor) QueryInto(pc uint32, buf []Dep) []Dep {
	set := d.set(pc)
	out := buf
	for i := range set {
		e := &set[i]
		if e.valid && e.producer == pc {
			e.lru = d.tick
			out = append(out, Dep{ConsumerPC: e.consumer, Offset: e.offset})
		}
	}
	return out
}

// HasEdge reports whether producer -> consumer is recorded.
func (d *DepPredictor) HasEdge(producer, consumer uint32) bool {
	set := d.set(producer)
	for i := range set {
		e := &set[i]
		if e.valid && e.producer == producer && e.consumer == consumer {
			return true
		}
	}
	return false
}
