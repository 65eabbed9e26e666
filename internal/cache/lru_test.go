package cache

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// stampLine is the 24-byte tag entry the 12-byte line replaced: the
// same fields with a 64-bit recency stamp.
type stampLine struct {
	tag   uint32
	lru   uint64
	valid bool
	dirty bool
}

// stampCache is the reference model for cache: the same tag array with
// an unbounded 64-bit clock, so it never wraps.  Its victim rule is the
// one cache keeps: the last invalid way, else the valid way with the
// smallest stamp.
type stampCache struct {
	lines     []stampLine
	assoc     int
	lineShift uint
	setMask   uint32
	tick      uint64
}

func newStampCache(g Geom) *stampCache {
	c := newCache(g)
	return &stampCache{
		lines:     make([]stampLine, len(c.lines)),
		assoc:     c.assoc,
		lineShift: c.lineShift,
		setMask:   c.setMask,
	}
}

func (m *stampCache) ways(addr uint32) (set uint32, tag uint32, ways []stampLine) {
	l := addr >> m.lineShift
	set, tag = l&m.setMask, l/(m.setMask+1)
	base := int(set) * m.assoc
	return set, tag, m.lines[base : base+m.assoc]
}

func (m *stampCache) find(addr uint32) *stampLine {
	_, tag, ways := m.ways(addr)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			return &ways[i]
		}
	}
	return nil
}

func (m *stampCache) lookup(addr uint32) bool {
	m.tick++
	if ln := m.find(addr); ln != nil {
		ln.lru = m.tick
		return true
	}
	return false
}

func (m *stampCache) fill(addr uint32) (victimAddr uint32, victimDirty, hadVictim bool) {
	m.tick++
	set, tag, ways := m.ways(addr)
	victim := &ways[0]
	for i := range ways {
		ln := &ways[i]
		if ln.valid && ln.tag == tag {
			ln.lru = m.tick
			return 0, false, false
		}
		if !ln.valid {
			victim = ln
		} else if victim.valid && ln.lru < victim.lru {
			victim = ln
		}
	}
	if victim.valid {
		hadVictim, victimDirty = true, victim.dirty
		victimAddr = (victim.tag*(m.setMask+1) + set) << m.lineShift
	}
	*victim = stampLine{tag: tag, lru: m.tick, valid: true}
	return victimAddr, victimDirty, hadVictim
}

// lruOp is one tag-array operation of a differential trace.
type lruOp struct {
	kind uint8 // lruLookup ... lruInvalidate
	addr uint32
}

const (
	lruLookup = iota
	lruFill
	lruProbe
	lruDirty
	lruInvalidate
	lruKinds
)

// wrapSoon moves the clock to n ticks below its wrap.  The clock only
// moves forward, so the stamps already held keep their order.
func (c *cache) wrapSoon(n uint32) {
	if c.tick < math.MaxUint32-n {
		c.tick = math.MaxUint32 - n
	}
}

// runLRUDiff drives cache and stampCache through ops from a clock
// wrapSoon(wrapIn) ticks below the wrap, re-arming it every rearm ops
// (never if 0), and fails on the first diverging hit, victim, dirty bit
// or way.
func runLRUDiff(t *testing.T, g Geom, ops []lruOp, wrapIn uint32, rearm int) {
	t.Helper()
	c, m := newCache(g), newStampCache(g)
	c.wrapSoon(wrapIn)
	wraps, advances := 0, 0
	for i, op := range ops {
		if rearm > 0 && i > 0 && i%rearm == 0 {
			c.wrapSoon(wrapIn)
		}
		before := c.tick
		switch op.kind {
		case lruLookup:
			if got, want := c.lookup(op.addr), m.lookup(op.addr); got != want {
				t.Fatalf("op %d lookup(%#x) = %v, model %v", i, op.addr, got, want)
			}
		case lruFill:
			va, vd, had := c.fill(op.addr)
			wa, wd, whad := m.fill(op.addr)
			if va != wa || vd != wd || had != whad {
				t.Fatalf("op %d fill(%#x) = (%#x, %v, %v), model (%#x, %v, %v)",
					i, op.addr, va, vd, had, wa, wd, whad)
			}
		case lruProbe:
			if got, want := c.probe(op.addr), m.find(op.addr) != nil; got != want {
				t.Fatalf("op %d probe(%#x) = %v, model %v", i, op.addr, got, want)
			}
		case lruDirty:
			c.setDirty(op.addr)
			if ln := m.find(op.addr); ln != nil {
				ln.dirty = true
			}
		case lruInvalidate:
			c.invalidate(op.addr)
			if ln := m.find(op.addr); ln != nil {
				ln.valid = false
			}
		}
		if op.kind == lruLookup || op.kind == lruFill {
			advances++
		}
		if c.tick < before {
			wraps++
		}
		set, _ := c.index(op.addr)
		_, _, want := m.ways(op.addr)
		for w, ln := range c.ways(set) {
			if m := want[w]; ln.valid != m.valid || ln.valid && (ln.tag != m.tag || ln.dirty != m.dirty) {
				t.Fatalf("op %d (kind %d, %#x): way %d = %+v, model %+v", i, op.kind, op.addr, w, ln, m)
			}
		}
	}
	if advances > int(wrapIn) && wraps == 0 {
		t.Fatalf("the clock never wrapped in %d ticks", advances)
	}
}

// lruGeoms are the geometries the differential tests cover: direct
// mapped, 2-, 4- and 8-way, and fully associative.
var lruGeoms = []struct {
	name string
	g    Geom
}{
	{"1way", Geom{SizeBytes: 1 << 10, LineBytes: 32, Assoc: 1}},
	{"2way", Geom{SizeBytes: 1 << 10, LineBytes: 32, Assoc: 2}},
	{"4way", Geom{SizeBytes: 1 << 10, LineBytes: 32, Assoc: 4}},
	{"8way", Geom{SizeBytes: 2 << 10, LineBytes: 64, Assoc: 8}},
	{"full", Geom{SizeBytes: 1 << 10, LineBytes: 32, Assoc: 32}},
}

// randomLRUOps draws n operations over a footprint of three times the
// cache's lines, biased towards lookups and fills.
func randomLRUOps(r *rand.Rand, g Geom, n int) []lruOp {
	lines := 3 * g.SizeBytes / g.LineBytes
	ops := make([]lruOp, n)
	for i := range ops {
		kind := uint8(r.Intn(10))
		switch {
		case kind < 4:
			kind = lruLookup
		case kind < 7:
			kind = lruFill
		default:
			kind -= 5 // lruProbe, lruDirty, lruInvalidate
		}
		addr := uint32(0x1000_0000 + r.Intn(lines)*g.LineBytes + r.Intn(g.LineBytes))
		ops[i] = lruOp{kind: kind, addr: addr}
	}
	return ops
}

// TestCacheLRUMatchesStampModel checks that the 32-bit clock and its
// rank compression pick every hit, fill and victim exactly as the
// 64-bit stamps did, through repeated wraps.
func TestCacheLRUMatchesStampModel(t *testing.T) {
	for _, tc := range lruGeoms {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(tc.g.Assoc)))
			runLRUDiff(t, tc.g, randomLRUOps(r, tc.g, 20000), 1000, 3000)
		})
	}
}

func TestLineSizes(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 12 {
		t.Errorf("line is %d bytes, want 12", got)
	}
	if got := unsafe.Sizeof(stampLine{}); got != 24 {
		t.Errorf("stampLine is %d bytes, want 24", got)
	}
}

// FuzzCacheLRU runs arbitrary tag-array traces against the stamp model.
// data[0] picks the geometry and data[1] how many ticks below its wrap
// the clock starts; each following byte pair is one operation (kind,
// line), over a footprint of twice the cache's lines.
func FuzzCacheLRU(f *testing.F) {
	f.Add([]byte{2, 3, 1, 0, 1, 32, 1, 64, 0, 0, 3, 0, 1, 96, 4, 32, 1, 128})
	f.Add([]byte{4, 0, 1, 1, 1, 2, 1, 3, 0, 1, 1, 40, 3, 2, 1, 41, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		g := lruGeoms[int(data[0])%len(lruGeoms)].g
		lines := 2 * g.SizeBytes / g.LineBytes
		var ops []lruOp
		for i := 2; i+1 < len(data); i += 2 {
			ops = append(ops, lruOp{
				kind: data[i] % lruKinds,
				addr: uint32(0x1000_0000 + int(data[i+1])%lines*g.LineBytes),
			})
		}
		runLRUDiff(t, g, ops, uint32(data[1]), 0)
	})
}
