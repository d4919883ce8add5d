package vm

import (
	"testing"
	"testing/quick"

	"itlbcfr/internal/addr"
)

func TestWalkIsStable(t *testing.T) {
	as := New(addr.DefaultGeometry, 1)
	p1 := as.Walk(42)
	p2 := as.Walk(42)
	if p1 != p2 {
		t.Errorf("Walk not stable: %#x vs %#x", p1, p2)
	}
	if as.MappedPages() != 1 {
		t.Errorf("MappedPages = %d", as.MappedPages())
	}
}

func TestFramesAreScattered(t *testing.T) {
	as := New(addr.DefaultGeometry, 1)
	seen := map[uint64]bool{}
	for vpn := uint64(0); vpn < 1000; vpn++ {
		pfn := as.Walk(vpn)
		if pfn == vpn {
			t.Fatalf("frame equals vpn %d — identity mapping defeats PFN/VPN confusion detection", vpn)
		}
		if seen[pfn] {
			t.Fatalf("duplicate frame %#x", pfn)
		}
		seen[pfn] = true
	}
}

func TestDistinctASIDsDistinctFrames(t *testing.T) {
	a := New(addr.DefaultGeometry, 1)
	b := New(addr.DefaultGeometry, 2)
	if a.Walk(7) == b.Walk(7) {
		t.Error("different address spaces should map the same VPN to different frames")
	}
	if a.ASID() == b.ASID() {
		t.Error("ASIDs should differ")
	}
}

func TestTranslatePreservesOffset(t *testing.T) {
	as := New(addr.DefaultGeometry, 3)
	va := addr.VAddr(0x0040_3ABC)
	pa := as.Translate(va)
	g := as.Geometry()
	if g.Offset(addr.VAddr(pa)) != g.Offset(va) {
		t.Error("translation must preserve page offset")
	}
	if uint64(pa)>>g.PageBits != as.Walk(g.VPN(va)) {
		t.Error("translated frame must match page table")
	}
}

func TestPinBlocksRemapAndUnmap(t *testing.T) {
	as := New(addr.DefaultGeometry, 1)
	as.Walk(5)
	as.PinWith(func(vpn uint64) bool { return vpn == 5 })
	if _, err := as.Remap(5); err == nil {
		t.Error("remap of pinned page must fail")
	}
	if err := as.Unmap(5); err == nil {
		t.Error("unmap of pinned page must fail")
	}
	if as.Stats().Denied != 2 {
		t.Errorf("Denied = %d, want 2", as.Stats().Denied)
	}
	as.PinWith(nil)
	if _, err := as.Remap(5); err != nil {
		t.Errorf("remap after revoking the pin: %v", err)
	}
}

func TestRemapChangesFrameAndBroadcasts(t *testing.T) {
	as := New(addr.DefaultGeometry, 1)
	old := as.Walk(9)
	var got []uint64
	as.OnInvalidate(func(vpn uint64) { got = append(got, vpn) })
	nw, err := as.Remap(9)
	if err != nil {
		t.Fatal(err)
	}
	if nw == old {
		t.Error("remap must assign a fresh frame")
	}
	if len(got) != 1 || got[0] != 9 {
		t.Errorf("invalidate hooks got %v", got)
	}
	if pfn := as.Walk(9); pfn != nw {
		t.Error("walk must see the new frame")
	}
}

func TestUnmapThenRealloc(t *testing.T) {
	as := New(addr.DefaultGeometry, 1)
	old := as.Walk(11)
	if err := as.Unmap(11); err != nil {
		t.Fatal(err)
	}
	if _, ok := as.Lookup(11); ok {
		t.Error("unmapped page still visible")
	}
	nw := as.Walk(11)
	if nw == old {
		t.Error("re-touch after unmap should land in a fresh frame")
	}
}

func TestRemapUnmappedFails(t *testing.T) {
	as := New(addr.DefaultGeometry, 1)
	if _, err := as.Remap(123); err == nil {
		t.Error("remap of unmapped page must fail")
	}
	if err := as.Unmap(123); err == nil {
		t.Error("unmap of unmapped page must fail")
	}
}

func TestPinnedQuery(t *testing.T) {
	as := New(addr.DefaultGeometry, 1)
	if as.Pinned(1) {
		t.Error("fresh page should not be pinned")
	}
	// The pin test is consulted live: the pinned page follows its holder.
	held := uint64(1)
	as.PinWith(func(vpn uint64) bool { return vpn == held })
	if !as.Pinned(1) || as.Pinned(2) {
		t.Error("only the held page should be pinned")
	}
	held = 2
	if as.Pinned(1) || !as.Pinned(2) {
		t.Error("the pin should follow the holder to page 2")
	}
}

func TestWalkDeterministicProperty(t *testing.T) {
	// Property: two address spaces built with the same ASID map any VPN
	// sequence identically (simulation reproducibility).
	f := func(vpns []uint16, asid uint8) bool {
		a := New(addr.DefaultGeometry, uint64(asid))
		b := New(addr.DefaultGeometry, uint64(asid))
		for _, v := range vpns {
			if a.Walk(uint64(v)) != b.Walk(uint64(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOffsetPreservedProperty(t *testing.T) {
	f := func(raw uint32) bool {
		as := New(addr.DefaultGeometry, 7)
		va := addr.VAddr(raw)
		pa := as.Translate(va)
		return as.Geometry().Offset(addr.VAddr(pa)) == as.Geometry().Offset(va)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
