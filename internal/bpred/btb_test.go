package bpred

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// stampBTBEntry is the BTB way the 16-byte btbEntry replaced: the same
// fields with a 64-bit recency stamp.
type stampBTBEntry struct {
	tag    uint32
	target uint32
	lru    uint64
	valid  bool
}

// stampBTB is the reference model for the BTB: per-set way slices and
// an unbounded 64-bit clock, as the predictor kept them before the flat
// array and the 32-bit clock.
type stampBTB struct {
	sets [][]stampBTBEntry
	tick uint64
}

func newStampBTB(cfg Config) *stampBTB {
	m := &stampBTB{sets: make([][]stampBTBEntry, cfg.BTBEntries/cfg.BTBAssoc)}
	for i := range m.sets {
		m.sets[i] = make([]stampBTBEntry, cfg.BTBAssoc)
	}
	return m
}

func (m *stampBTB) lookup(pc, target uint32) bool {
	m.tick++
	set := (pc >> 2) & uint32(len(m.sets)-1)
	tag := (pc >> 2) / uint32(len(m.sets))
	ways := m.sets[set]
	victim := &ways[0]
	for i := range ways {
		e := &ways[i]
		if e.valid && e.tag == tag {
			e.lru = m.tick
			hit := e.target == target
			e.target = target
			return hit
		}
		if !e.valid {
			victim = e
		} else if victim.valid && e.lru < victim.lru {
			victim = e
		}
	}
	*victim = stampBTBEntry{tag: tag, target: target, lru: m.tick, valid: true}
	return false
}

// btbWrapSoon moves the BTB clock to n ticks below its wrap; it only
// moves forward, so the stamps already held keep their order.
func (p *Predictor) btbWrapSoon(n uint32) {
	if p.btbTick < math.MaxUint32-n {
		p.btbTick = math.MaxUint32 - n
	}
}

// TestBTBMatchesStampModel checks that the flat BTB with its 32-bit
// clock and rank compression hits, misses and replaces exactly as the
// per-set, 64-bit-stamp BTB did, through repeated clock wraps, for
// direct-mapped, 2-, 4- and 8-way and fully associative geometries.
func TestBTBMatchesStampModel(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, 8, 64} {
		name := fmt.Sprintf("%dway", assoc)
		if assoc == 64 {
			name = "full" // one set of 64 ways
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{Entries: 64, HistoryBits: 4, BTBEntries: 64, BTBAssoc: assoc}
			p, m := New(cfg), newStampBTB(cfg)
			r := rand.New(rand.NewSource(int64(assoc)))
			wraps := 0
			for i := 0; i < 20000; i++ {
				if i%3000 == 0 {
					p.btbWrapSoon(1000)
				}
				before := p.btbTick
				pc := 0x400000 + 4*uint32(r.Intn(3*cfg.BTBEntries))
				target := 0x400000 + 4*uint32(r.Intn(4))
				if got, want := p.btbLookup(pc, target), m.lookup(pc, target); got != want {
					t.Fatalf("lookup %d (pc %#x, target %#x) hit = %v, model %v", i, pc, target, got, want)
				}
				if p.btbTick < before {
					wraps++
				}
				set := int((pc >> 2) & p.btbMask)
				for w, e := range p.btb[set*assoc : (set+1)*assoc] {
					if me := m.sets[set][w]; e.valid != me.valid || e.valid && (e.tag != me.tag || e.target != me.target) {
						t.Fatalf("lookup %d: set %d way %d = %+v, model %+v", i, set, w, e, me)
					}
				}
			}
			if wraps == 0 {
				t.Fatal("the BTB clock never wrapped")
			}
		})
	}
}

func TestBTBEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(btbEntry{}); got != 16 {
		t.Errorf("btbEntry is %d bytes, want 16", got)
	}
}

// TestNewRejectsBadGeometry checks that New refuses the sizes its index
// masks would silently alias, naming the field.
func TestNewRejectsBadGeometry(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   func(*Config)
		field string
	}{
		{"entries", func(c *Config) { c.Entries = 6000 }, "Entries"},
		{"zero entries", func(c *Config) { c.Entries = 0 }, "Entries"},
		{"btb sets", func(c *Config) { c.BTBEntries = 1536 }, "BTBEntries/BTBAssoc"},
		{"btb ragged", func(c *Config) { c.BTBAssoc = 3 }, "BTBEntries/BTBAssoc"},
		{"btb assoc", func(c *Config) { c.BTBAssoc = 0 }, "BTBEntries/BTBAssoc"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Defaults()
			tc.cfg(&cfg)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.field) {
					t.Fatalf("New(%+v) panicked with %q, want a message naming %s", cfg, msg, tc.field)
				}
			}()
			New(cfg)
		})
	}
}
