package addr

import (
	"testing"
	"testing/quick"
)

func TestNewGeometry(t *testing.T) {
	cases := []struct {
		bytes    uint64
		wantBits uint
		wantErr  bool
	}{
		{4096, 12, false},
		{8192, 13, false},
		{16384, 14, false},
		{256, 8, false},
		{0, 0, true},
		{100, 0, true},
		{3000, 0, true},
		{128, 0, true}, // below minimum
	}
	for _, c := range cases {
		g, err := NewGeometry(c.bytes)
		if c.wantErr {
			if err == nil {
				t.Errorf("NewGeometry(%d): want error, got %+v", c.bytes, g)
			}
			continue
		}
		if err != nil {
			t.Errorf("NewGeometry(%d): unexpected error %v", c.bytes, err)
			continue
		}
		if g.PageBits != c.wantBits {
			t.Errorf("NewGeometry(%d).PageBits = %d, want %d", c.bytes, g.PageBits, c.wantBits)
		}
		if g.PageBytes() != c.bytes {
			t.Errorf("NewGeometry(%d).PageBytes() = %d", c.bytes, g.PageBytes())
		}
	}
}

func TestVPNOffset(t *testing.T) {
	g := DefaultGeometry
	va := VAddr(0x0040_2ABC)
	if got := g.VPN(va); got != 0x402 {
		t.Errorf("VPN = %#x, want 0x402", got)
	}
	if got := g.Offset(va); got != 0xABC {
		t.Errorf("Offset = %#x, want 0xABC", got)
	}
	if got := g.PageBase(va); got != 0x0040_2000 {
		t.Errorf("PageBase = %#x, want 0x402000", uint64(got))
	}
}

func TestTranslate(t *testing.T) {
	g := DefaultGeometry
	pa := g.Translate(0x7F, VAddr(0x1234_5678))
	if got := uint64(pa); got != 0x7F678 {
		t.Errorf("Translate = %#x, want 0x7F678", got)
	}
}

func TestSamePage(t *testing.T) {
	g := DefaultGeometry
	if !g.SamePage(0x1000, 0x1FFC) {
		t.Error("0x1000 and 0x1FFC should share a page")
	}
	if g.SamePage(0x1FFC, 0x2000) {
		t.Error("0x1FFC and 0x2000 should not share a page")
	}
}

func TestIsLastInstInPage(t *testing.T) {
	g := DefaultGeometry
	if !g.IsLastInstInPage(0x1FFC) {
		t.Error("0x1FFC is the last instruction slot of its 4KB page")
	}
	if g.IsLastInstInPage(0x1FF8) {
		t.Error("0x1FF8 is not the last instruction slot")
	}
	g8, _ := NewGeometry(8192)
	if !g8.IsLastInstInPage(0x3FFC) {
		t.Error("0x3FFC is the last slot of an 8KB page")
	}
}

func TestInstIndexRoundTrip(t *testing.T) {
	base := VAddr(0x40_0000)
	for _, idx := range []int{0, 1, 7, 1023, 1 << 20} {
		va := InstAddr(base, idx)
		if got := InstIndex(base, va); got != idx {
			t.Errorf("InstIndex(InstAddr(%d)) = %d", idx, got)
		}
	}
}

func TestInstIndexPanicsOnBadAddr(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unaligned address")
		}
	}()
	InstIndex(0x1000, 0x1002)
}

func TestTranslatePreservesOffsetProperty(t *testing.T) {
	// Property: for any geometry and address, the translated physical address
	// keeps the page offset and carries the requested frame number.
	f := func(rawVA uint64, pfn uint32, pageSel uint8) bool {
		bits := uint(10 + pageSel%6) // 1KB..32KB pages
		g := Geometry{PageBits: bits}
		va := VAddr(rawVA)
		pa := g.Translate(uint64(pfn), va)
		return g.Offset(VAddr(pa)) == g.Offset(va) && uint64(pa)>>g.PageBits == uint64(pfn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestVPNMonotonicProperty(t *testing.T) {
	// Property: VPN is monotone non-decreasing in the address.
	f := func(a, b uint64) bool {
		g := DefaultGeometry
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return g.VPN(VAddr(lo)) <= g.VPN(VAddr(hi))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
