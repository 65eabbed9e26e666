package core

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/dbp"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/mem"
)

func TestJQTQueueMethod(t *testing.T) {
	q := NewJQT(32, 4)
	const pc = 0x400100
	// The first `interval` visits prime the queue without producing
	// homes.
	for i := 0; i < 4; i++ {
		if _, ok := q.Visit(pc, uint32(0x1000+i*16)); ok {
			t.Fatalf("visit %d produced a home before the queue filled", i)
		}
	}
	// From then on, the home is the address from `interval` visits ago.
	for i := 4; i < 12; i++ {
		home, ok := q.Visit(pc, uint32(0x1000+i*16))
		if !ok {
			t.Fatalf("visit %d produced no home", i)
		}
		want := uint32(0x1000 + (i-4)*16)
		if home != want {
			t.Fatalf("visit %d: home %#x, want %#x", i, home, want)
		}
	}
}

func TestJQTSeparateQueuesPerPC(t *testing.T) {
	q := NewJQT(32, 2)
	q.Visit(0x400100, 0x1000)
	q.Visit(0x400200, 0x2000)
	q.Visit(0x400100, 0x1010)
	q.Visit(0x400200, 0x2010)
	home, ok := q.Visit(0x400100, 0x1020)
	if !ok || home != 0x1000 {
		t.Fatalf("pc1 home = %#x, %v", home, ok)
	}
	home, ok = q.Visit(0x400200, 0x2020)
	if !ok || home != 0x2000 {
		t.Fatalf("pc2 home = %#x, %v", home, ok)
	}
}

func TestJQTEvictionLRU(t *testing.T) {
	q := NewJQT(2, 2)
	q.Visit(0x100, 1)
	q.Visit(0x200, 2)
	q.Visit(0x100, 3) // refresh 0x100
	q.Visit(0x300, 4) // evicts 0x200
	// 0x100 kept its state: its queue is primed, so a visit produces
	// the home from `interval` visits ago.
	if home, ok := q.Visit(0x100, 6); !ok || home != 1 {
		t.Fatalf("surviving entry: home=%d ok=%v", home, ok)
	}
	// 0x200 lost its queue: a fresh visit must not produce a home (it
	// re-allocates, evicting another victim).
	if _, ok := q.Visit(0x200, 5); ok {
		t.Fatal("evicted entry retained state")
	}
}

func TestJQTQueueMethodProperty(t *testing.T) {
	// For any visit sequence, a produced home is always the address
	// visited exactly `interval` visits earlier for that PC.
	f := func(addrs []uint32, interval uint8) bool {
		iv := int(interval)%8 + 1
		q := NewJQT(4, iv)
		var hist []uint32
		for _, a := range addrs {
			home, ok := q.Visit(0x400100, a)
			if ok {
				if len(hist) < iv || home != hist[len(hist)-iv] {
					return false
				}
			} else if len(hist) >= iv {
				return false
			}
			hist = append(hist, a)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSWJumpQueueEmitsCreationCode(t *testing.T) {
	alloc := heap.New(mem.NewImage())
	var nodes []ir.Val
	g := ir.NewGen(alloc, func(a *ir.Asm) {
		for i := 0; i < 12; i++ {
			nodes = append(nodes, a.Malloc(12))
		}
		q := NewSWJumpQueue(a, 200, 0, 4, 12)
		for _, n := range nodes {
			q.Visit(n)
		}
	})
	for d := g.Next(); d != nil; d = g.Next() {
	}
	img := alloc.Image()
	// Node i's jump slot must point to node i+4.
	for i := 0; i+4 < 12; i++ {
		got := img.ReadWord(nodes[i].U32() + 12)
		if got != nodes[i+4].U32() {
			t.Fatalf("node %d jump = %#x, want %#x", i, got, nodes[i+4].U32())
		}
	}
	// The last `interval` nodes have no jump pointer yet.
	if img.ReadWord(nodes[11].U32()+12) != 0 {
		t.Fatal("tail node has a jump pointer")
	}
	// Creation code is tagged overhead.
	if g.Stats().OvhdInsts == 0 {
		t.Fatal("creation code not tagged as overhead")
	}
}

func TestSWJumpQueueExtras(t *testing.T) {
	alloc := heap.New(mem.NewImage())
	var nodes []ir.Val
	g := ir.NewGen(alloc, func(a *ir.Asm) {
		for i := 0; i < 6; i++ {
			nodes = append(nodes, a.Malloc(20))
		}
		q := NewSWJumpQueue(a, 200, 0, 2, 12)
		for i, n := range nodes {
			rib := ir.Imm(uint32(0xAA00 + i))
			q.Visit(n, FieldStore{Off: 16, Val: rib})
		}
	})
	for d := g.Next(); d != nil; d = g.Next() {
	}
	img := alloc.Image()
	// Full jumping: home i gets target's rib value (0xAA00 + i+2).
	if got := img.ReadWord(nodes[0].U32() + 16); got != 0xAA02 {
		t.Fatalf("rib jump = %#x, want 0xAA02", got)
	}
}

// TestSWJumpQueueExtrasDistinctPCs is the regression test for the
// extra-field site aliasing bug: Visit used to emit every extra
// FieldStore at the same static site (s+6), merging distinct store
// sites into one PC and corrupting per-PC predictor training and site
// accounting.  With >= 2 extras, each store offset must have its own
// static PC, and the values must still land correctly.
func TestSWJumpQueueExtrasDistinctPCs(t *testing.T) {
	alloc := heap.New(mem.NewImage())
	var nodes []ir.Val
	const siteBase = 200
	g := ir.NewGen(alloc, func(a *ir.Asm) {
		for i := 0; i < 6; i++ {
			nodes = append(nodes, a.Malloc(24))
		}
		q := NewSWJumpQueue(a, siteBase, 0, 2, 12)
		for i, n := range nodes {
			q.Visit(n,
				FieldStore{Off: 16, Val: ir.Imm(uint32(0xAA00 + i))},
				FieldStore{Off: 20, Val: ir.Imm(uint32(0xBB00 + i))})
		}
	})
	isNode := func(base uint32) bool {
		for _, n := range nodes {
			if n.U32() == base {
				return true
			}
		}
		return false
	}
	// Collect the static PC of each home-relative store offset.
	pcs := map[uint32]map[uint32]bool{} // offset -> set of PCs
	for d := g.Next(); d != nil; d = g.Next() {
		if d.Class != ir.Store || !isNode(d.BaseValue) {
			continue
		}
		off := d.Addr - d.BaseValue
		if pcs[off] == nil {
			pcs[off] = map[uint32]bool{}
		}
		pcs[off][d.PC] = true
	}
	want := map[uint32]uint32{
		12: ir.SitePC(siteBase + 5), // jump pointer
		16: ir.SitePC(siteBase + 7), // extra 0
		20: ir.SitePC(siteBase + 8), // extra 1
	}
	for off, pc := range want {
		got := pcs[off]
		if len(got) != 1 || !got[pc] {
			t.Errorf("stores at offset %d use PCs %v, want exactly %#x", off, got, pc)
		}
	}
	// Distinct offsets must never share a PC (the pre-fix failure mode:
	// offsets 16 and 20 both at site s+6).
	seen := map[uint32]uint32{}
	for off, set := range pcs {
		for pc := range set {
			if prev, dup := seen[pc]; dup {
				t.Errorf("offsets %d and %d share static PC %#x", prev, off, pc)
			}
			seen[pc] = off
		}
	}
	// Values still land: home 0's extras carry node 2's rib values.
	img := alloc.Image()
	if got := img.ReadWord(nodes[0].U32() + 16); got != 0xAA02 {
		t.Errorf("extra 0 value = %#x, want 0xAA02", got)
	}
	if got := img.ReadWord(nodes[0].U32() + 20); got != 0xBB02 {
		t.Errorf("extra 1 value = %#x, want 0xBB02", got)
	}
}

func TestSWJumpQueueSitesFor(t *testing.T) {
	for _, c := range []struct{ extras, want int }{
		{0, SWJumpQueueSites}, {1, SWJumpQueueSites}, {2, 9}, {6, 13},
	} {
		if got := SWJumpQueueSitesFor(c.extras); got != c.want {
			t.Errorf("SWJumpQueueSitesFor(%d) = %d, want %d", c.extras, got, c.want)
		}
	}
}

// TestJumpPrefetchForms checks both forms of the jump-pointer prefetch
// emitter: the cooperative form is a single FJumpChase prefetch of the
// jump-pointer word at site; the software form is an overhead load of
// that word at site and a prefetch of its target at site+1, and returns
// the loaded pointer.
func TestJumpPrefetchForms(t *testing.T) {
	const site, jumpOff = 300, 12
	for _, coop := range []bool{true, false} {
		alloc := heap.New(mem.NewImage())
		var node, target, ret ir.Val
		g := ir.NewGen(alloc, func(a *ir.Asm) {
			node, target = a.Malloc(16), a.Malloc(16)
			a.Store(200, node, jumpOff, target)
			ret = JumpPrefetch(a, site, node, jumpOff, coop)
		})
		var got []ir.DynInst
		for d := g.Next(); d != nil; d = g.Next() {
			if d.PC >= ir.SitePC(site) {
				got = append(got, *d)
			}
		}
		if coop {
			if len(got) != 1 {
				t.Fatalf("coop: emitted %d instructions, want 1", len(got))
			}
			d := got[0]
			if d.Class != ir.Prefetch || d.PC != ir.SitePC(site) ||
				d.Addr != node.U32()+jumpOff || d.Flags != ir.FJumpChase|ir.FOverhead {
				t.Errorf("coop: got %+v, want an FJumpChase prefetch of %#x at site %d",
					d, node.U32()+jumpOff, site)
			}
			if !ret.IsNil() {
				t.Errorf("coop: returned %#x, want the zero Val", ret.U32())
			}
			continue
		}
		if len(got) != 2 {
			t.Fatalf("sw: emitted %d instructions, want 2", len(got))
		}
		ld, pf := got[0], got[1]
		if ld.Class != ir.Load || ld.PC != ir.SitePC(site) || ld.Addr != node.U32()+jumpOff ||
			ld.Value != target.U32() || ld.Flags != ir.FOverhead {
			t.Errorf("sw: first instruction %+v, want an overhead load of the jump pointer at site %d", ld, site)
		}
		if pf.Class != ir.Prefetch || pf.PC != ir.SitePC(site+1) || pf.Addr != target.U32() ||
			pf.Src1 != ld.Seq || pf.Flags != ir.FOverhead {
			t.Errorf("sw: second instruction %+v, want an overhead prefetch of the loaded %#x at site %d",
				pf, target.U32(), site+1)
		}
		if ret.U32() != target.U32() {
			t.Errorf("sw: returned %#x, want the loaded jump pointer %#x", ret.U32(), target.U32())
		}
	}
}

// buildHWRig wires a hardware engine over a synthetic list.
func buildHWRig(t *testing.T, n int) (*HWEngine, *heap.Allocator, []uint32) {
	t.Helper()
	img := mem.NewImage()
	alloc := heap.New(img)
	p := cache.Defaults()
	p.EnablePB = true
	hier := cache.New(p)
	eng := NewHWEngine(dbp.Defaults(), DefaultHWConfig(), hier, alloc)
	nodes := make([]uint32, n)
	for i := range nodes {
		nodes[i] = alloc.Alloc(12)
	}
	for i := 0; i+1 < n; i++ {
		img.WriteWord(nodes[i]+4, nodes[i+1])
	}
	return eng, alloc, nodes
}

func commitNext(eng *HWEngine, now uint64, pc, base uint32) {
	eng.OnCommit(now, &ir.DynInst{
		PC: pc, Class: ir.Load, Addr: base + 4,
		BaseValue: base, Value: eng.Image().ReadWord(base + 4),
		Flags: ir.FLDS,
	})
}

func TestHWRecurrenceDetection(t *testing.T) {
	eng, _, nodes := buildHWRig(t, 20)
	const pc = 0x400100
	for i := 0; i < 10; i++ {
		commitNext(eng, uint64(i), pc, nodes[i])
	}
	if !eng.IsRecurrent(pc) {
		t.Fatal("self-recurrent load not detected")
	}
}

func TestHWJumpPointerCreationInPadding(t *testing.T) {
	eng, alloc, nodes := buildHWRig(t, 32)
	const pc = 0x400100
	// Make home lines L1-resident so best-effort stores proceed.
	hier := eng.hier
	for i := range nodes {
		hier.AccessData(uint64(i), nodes[i], cache.KLoad)
	}
	for i := 0; i < 32; i++ {
		commitNext(eng, uint64(1000+i), pc, nodes[i])
	}
	// After interval (8) + warmup visits, node j holds a jump pointer
	// to node j+8 in its padding slot.
	pad, ok := alloc.PaddingAddr(nodes[2])
	if !ok {
		t.Fatal("node has no padding")
	}
	got := eng.Image().ReadWord(pad)
	if got != nodes[10] {
		t.Fatalf("jump pointer at node 2 = %#x, want node 10 (%#x)", got, nodes[10])
	}
	if s := eng.HWStats(); s.JPStores == 0 {
		t.Fatalf("no JP stores recorded: %+v", s)
	}
}

func TestHWLaunchOnIssue(t *testing.T) {
	eng, _, nodes := buildHWRig(t, 32)
	const pc = 0x400100
	hier := eng.hier
	for i := range nodes {
		hier.AccessData(uint64(i), nodes[i], cache.KLoad)
	}
	for i := 0; i < 32; i++ {
		commitNext(eng, uint64(1000+i), pc, nodes[i])
	}
	eng.Tick(1999, 0)
	// Re-issuing the recurrent load at node 2 reads the JPR and
	// launches a prefetch of node 10.
	eng.OnLoadIssue(2000, &ir.DynInst{
		PC: pc, Class: ir.Load, Addr: nodes[2] + 4,
		BaseValue: nodes[2], Flags: ir.FLDS,
	})
	if s := eng.HWStats(); s.JPLaunches != 1 {
		t.Fatalf("JPLaunches = %d", s.JPLaunches)
	}
}

func TestHWJPRLimitOncePerCycle(t *testing.T) {
	eng, _, nodes := buildHWRig(t, 32)
	const pc = 0x400100
	hier := eng.hier
	for i := range nodes {
		hier.AccessData(uint64(i), nodes[i], cache.KLoad)
	}
	for i := 0; i < 32; i++ {
		commitNext(eng, uint64(1000+i), pc, nodes[i])
	}
	eng.Tick(1999, 0)
	for i := 0; i < 3; i++ {
		eng.OnLoadIssue(2000, &ir.DynInst{
			PC: pc, Class: ir.Load, Addr: nodes[2+i] + 4,
			BaseValue: nodes[2+i], Flags: ir.FLDS,
		})
	}
	if s := eng.HWStats(); s.JPLaunches != 1 {
		t.Fatalf("JPR allowed %d launches in one cycle", s.JPLaunches)
	}
}

func TestSchemeAndIdiomStrings(t *testing.T) {
	if SchemeCooperative.String() != "coop" || IdiomChain.String() != "chain" {
		t.Fatal("string forms changed")
	}
	if !SchemeCooperative.UsesSoftwareIdiom() || SchemeHardware.UsesSoftwareIdiom() {
		t.Fatal("UsesSoftwareIdiom wrong")
	}
	if len(Schemes()) != 5 {
		t.Fatal("scheme list wrong")
	}
}

// TestParseRoundTrip pins ParseScheme and ParseIdiom as the inverses
// of String, and checks that a rejected string is named in the error.
func TestParseRoundTrip(t *testing.T) {
	for _, s := range Schemes() {
		if got, err := ParseScheme(s.String()); err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for _, i := range []Idiom{IdiomQueue, IdiomFull, IdiomChain, IdiomRoot} {
		if got, err := ParseIdiom(i.String()); err != nil || got != i {
			t.Errorf("ParseIdiom(%q) = %v, %v; want %v", i.String(), got, err, i)
		}
	}
	// IdiomNone means "the benchmark's representative idiom" and is
	// spelled as the empty flag value, never as its String.
	if got, err := ParseIdiom(""); err != nil || got != IdiomNone {
		t.Errorf(`ParseIdiom("") = %v, %v; want %v`, got, err, IdiomNone)
	}
	for _, bad := range []string{"", "Coop", "scheme(9)", "hardwear"} {
		if _, err := ParseScheme(bad); err == nil || !strings.Contains(err.Error(), strconv.Quote(bad)) {
			t.Errorf("ParseScheme(%q) error = %v, want one naming the input", bad, err)
		}
	}
	for _, bad := range []string{"none", "Queue", "idiom(9)", "default"} {
		if _, err := ParseIdiom(bad); err == nil || !strings.Contains(err.Error(), strconv.Quote(bad)) {
			t.Errorf("ParseIdiom(%q) error = %v, want one naming the input", bad, err)
		}
	}
}
