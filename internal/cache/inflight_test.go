package cache

import (
	"math/bits"
	"math/rand"
	"testing"
)

// refInflight is the reference model for the packed inflight table:
// the same open-addressed table (multiplicative hash, linear probing,
// growth at half full, backward-shift deletion) with one 16-byte
// struct per slot.
type refInflight struct {
	slots []inflightFill
	n     int
	shift uint
}

type inflightFill struct {
	done uint64
	line uint32
	used bool
}

func newRefInflight() *refInflight {
	return &refInflight{
		slots: make([]inflightFill, inflightInitSlots),
		shift: 32 - uint(bits.Len(uint(inflightInitSlots-1))),
	}
}

func (m *refInflight) home(line uint32) int {
	return int((line * 0x9E3779B1) >> m.shift)
}

func (m *refInflight) find(now uint64, line uint32) int {
	i := m.home(line)
	for {
		e := &m.slots[i]
		if !e.used {
			return -1
		}
		if e.done <= now {
			m.drop(i)
			continue
		}
		if e.line == line {
			return i
		}
		i = (i + 1) & (len(m.slots) - 1)
	}
}

func (m *refInflight) drop(i int) {
	mask := len(m.slots) - 1
	m.slots[i] = inflightFill{}
	m.n--
	j := i
	for {
		j = (j + 1) & mask
		e := m.slots[j]
		if !e.used {
			return
		}
		if (j-m.home(e.line))&mask >= (j-i)&mask {
			m.slots[i] = e
			m.slots[j] = inflightFill{}
			i = j
		}
	}
}

func (m *refInflight) insert(now uint64, line uint32, done uint64) {
	if 2*m.n >= len(m.slots) {
		m.grow()
	}
	i := m.home(line)
	for {
		e := &m.slots[i]
		if !e.used {
			*e = inflightFill{done: done, line: line, used: true}
			m.n++
			return
		}
		if e.done <= now {
			m.drop(i)
			continue
		}
		if e.line == line {
			e.done = done
			return
		}
		i = (i + 1) & (len(m.slots) - 1)
	}
}

func (m *refInflight) grow() {
	old := m.slots
	m.slots = make([]inflightFill, 2*len(old))
	m.shift--
	mask := len(m.slots) - 1
	for _, e := range old {
		if !e.used {
			continue
		}
		i := m.home(e.line)
		for m.slots[i].used {
			i = (i + 1) & mask
		}
		m.slots[i] = e
	}
}

// inflightStream shapes a random find/insert stream.
type inflightStream struct {
	name string
	// lines is the size of the line pool; small pools re-insert lines
	// that are still in flight.
	lines int
	// maxLat bounds a fill's latency past its insert cycle; long
	// latencies keep fills live and grow the table.
	maxLat int
	// step bounds how far the lookup cycle advances per step; short
	// steps keep many fills live at once, so insert cycles land
	// exactly on completion cycles along the probe path.
	step int
	// walkPct is the share of inserts made at a cycle past the lookup
	// cycle, as after a TLB walk: they expire fills the lookup kept.
	walkPct int
	// dropPct is the share of found fills retired by their consumer.
	dropPct int
}

var inflightStreams = []inflightStream{
	{"loads", 1 << 10, 300, 20, 0, 30},
	{"tlbwalk", 1 << 10, 120, 20, 50, 20},
	{"tlbwalk-dense", 1 << 12, 200, 2, 50, 20},
	{"stores", 1 << 12, 20_000, 20, 10, 0},
	{"reinsert", 256, 5_000, 20, 30, 10},
	{"mixed", 1 << 12, 10_000, 20, 20, 15},
}

// TestInflightMatchesReferenceModel drives the packed table and the
// 16-byte-slot model through the same find/insert/drop streams and
// requires equal lookups and equal slot contents after every step.
func TestInflightMatchesReferenceModel(t *testing.T) {
	for si, st := range inflightStreams {
		t.Run(st.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(si) + 1))
			h := New(Defaults())
			ref := newRefInflight()
			now := uint64(1000)
			for step := 0; step < 10_000; step++ {
				// Lookup cycles mostly advance, sometimes step back, as
				// an out-of-order core's accesses do.
				if r.Intn(8) == 0 && now > 50 {
					now -= uint64(r.Intn(50))
				} else {
					now += uint64(r.Intn(st.step))
				}
				line := uint32(r.Intn(st.lines)) << h.lineShift
				got, want := h.findInflight(now, line), ref.find(now, line)
				if got != want {
					t.Fatalf("step %d: find(%d, %#x) = %d, want %d", step, now, line, got, want)
				}
				switch {
				case got >= 0:
					if h.fillDone(h.inflight[got]) != ref.slots[got].done {
						t.Fatalf("step %d: slot %d done differs", step, got)
					}
					if r.Intn(100) < st.dropPct {
						h.dropInflight(got)
						ref.drop(got)
					}
				default:
					at := now
					if r.Intn(100) < st.walkPct {
						at += 30
					}
					done := at + 1 + uint64(r.Intn(st.maxLat))
					h.insertInflight(at, line, done)
					ref.insert(at, line, done)
				}
				checkInflightSlots(t, step, h, ref)
			}
			if len(h.inflight) <= inflightInitSlots {
				t.Fatalf("table never grew (%d slots)", len(h.inflight))
			}
			t.Logf("%s: %d slots, %d occupied", st.name, len(h.inflight), h.inflightN)
		})
	}
}

func checkInflightSlots(t *testing.T, step int, h *Hierarchy, ref *refInflight) {
	t.Helper()
	if len(h.inflight) != len(ref.slots) || h.inflightN != ref.n || h.inflightShift != ref.shift {
		t.Fatalf("step %d: table shape (%d slots, %d occupied, shift %d), model (%d, %d, %d)",
			step, len(h.inflight), h.inflightN, h.inflightShift, len(ref.slots), ref.n, ref.shift)
	}
	for i, s := range h.inflight {
		e := ref.slots[i]
		if (s != 0) != e.used || e.used && (h.fillDone(s) != e.done || h.fillLine(s) != e.line) {
			t.Fatalf("step %d: slot %d holds %#x, model %+v", step, i, s, e)
		}
	}
}

// TestInflightPackedRange pins the packed slot's cycle field: with
// 32-byte lines a completion cycle below 2^37 round-trips next to any
// line, and 2^37 (or 0, which would read as an empty slot) panics.
func TestInflightPackedRange(t *testing.T) {
	h := New(Defaults())
	const limit = uint64(1) << 37
	for _, line := range []uint32{0, 32, 0xFFFF_FFE0} {
		for _, done := range []uint64{1, 12345, limit - 1} {
			s := h.packFill(line, done)
			if h.fillDone(s) != done || h.fillLine(s) != line {
				t.Fatalf("packFill(%#x, %d) decodes to (%#x, %d)", line, done, h.fillLine(s), h.fillDone(s))
			}
		}
	}
	for _, done := range []uint64{0, limit, 1 << 63} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("insertInflight with done %d did not panic", done)
				}
			}()
			h.insertInflight(0, 0x40, done)
		}()
	}
}
