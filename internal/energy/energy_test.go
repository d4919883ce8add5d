package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAnchoredDesignPoints(t *testing.T) {
	m := NewModel(DefaultTech)
	cases := []struct {
		entries, assoc int
		want           float64
	}{
		{1, 1, 0.0263},
		{8, 8, 0.397},
		{16, 2, 0.586},
		{32, 32, 0.436},
	}
	for _, c := range cases {
		got := m.TLBAccess(c.entries, c.assoc)
		if !almost(got, c.want, 0.01) {
			t.Errorf("TLBAccess(%d,%d) = %.4f nJ, want ~%.4f", c.entries, c.assoc, got, c.want)
		}
	}
}

func TestPaperEnergyOrdering(t *testing.T) {
	// The paper's design points have the counter-intuitive property that the
	// 16-entry 2-way TLB costs MORE per access than the 32-entry FA CAM
	// (Table 6: 146.5 mJ vs 109.1 mJ base energy for mesa). The model must
	// preserve that ordering.
	m := NewModel(DefaultTech)
	if m.TLBAccess(16, 2) <= m.TLBAccess(32, 32) {
		t.Error("16-entry 2-way should cost more per access than 32-entry FA")
	}
	if m.TLBAccess(1, 1) >= m.TLBAccess(8, 8) {
		t.Error("1-entry should be far cheaper than 8-entry FA")
	}
	if m.TLBAccess(96, 96) <= m.TLBAccess(32, 32) {
		t.Error("96-entry FA should cost more than 32-entry FA")
	}
	if m.TLBAccess(128, 128) <= m.TLBAccess(96, 96) {
		t.Error("CAM energy should grow with entries")
	}
}

func TestComparatorCheaperThanAnyTLB(t *testing.T) {
	// The whole premise of the paper: a CFR comparison is far cheaper than a
	// TLB access — but not free (it separates HoA from OPT in Figure 4).
	m := NewModel(DefaultTech)
	if m.Comparator() <= 0 {
		t.Fatal("comparator energy must be positive")
	}
	if m.Comparator() >= m.TLBAccess(1, 1) {
		t.Error("comparator must be cheaper than even a 1-entry TLB access")
	}
	if m.CFRRead() >= m.Comparator() {
		t.Error("a plain CFR read must be cheaper than a comparison")
	}
}

func TestTechScaling(t *testing.T) {
	m100 := NewModel(Tech{FeatureNm: 100})
	m70 := NewModel(Tech{FeatureNm: 70})
	r := m70.TLBAccess(32, 32) / m100.TLBAccess(32, 32)
	if !almost(r, 0.49, 0.01) {
		t.Errorf("70nm/100nm energy ratio = %.3f, want ~0.49", r)
	}
	mzero := NewModel(Tech{FeatureNm: 0})
	if mzero.TLBAccess(32, 32) != m100.TLBAccess(32, 32) {
		t.Error("non-positive feature size should fall back to unit scale")
	}
}

func TestMeterAccumulation(t *testing.T) {
	m := NewModel(DefaultTech)
	mt := NewMeter(m, []int{32}, []int{32})
	for i := 0; i < 1000; i++ {
		mt.AddAccess(0)
	}
	for i := 0; i < 10; i++ {
		mt.AddMiss(0)
	}
	mt.AddComparisons(1)
	mt.AddCFRReads(1)
	mt.AddCFRWrite()
	mt.AddStubs(1)

	want := 1000*m.TLBAccess(32, 32) + 10*m.TLBRefill(32, 32) +
		m.Comparator() + m.CFRRead() + m.CFRWrite() + m.StubInst()
	if !almost(mt.TotalNJ(), want, 1e-9) {
		t.Errorf("TotalNJ = %v, want %v", mt.TotalNJ(), want)
	}
	if !almost(mt.TotalMJ(), want*1e-6, 1e-15) {
		t.Errorf("TotalMJ = %v", mt.TotalMJ())
	}
	if mt.TotalAccesses() != 1000 {
		t.Errorf("TotalAccesses = %d", mt.TotalAccesses())
	}
	mt.Reset()
	if mt.TotalNJ() != 0 || mt.TotalAccesses() != 0 {
		t.Error("Reset should zero all counters")
	}
}

func TestMeterMultiLevel(t *testing.T) {
	m := NewModel(DefaultTech)
	mt := NewMeter(m, []int{1, 32}, []int{1, 32})
	mt.AddAccess(0)
	mt.AddAccess(1)
	want := m.TLBAccess(1, 1) + m.TLBAccess(32, 32)
	if !almost(mt.TotalNJ(), want, 1e-9) {
		t.Errorf("multi-level TotalNJ = %v, want %v", mt.TotalNJ(), want)
	}
}

func TestMeterBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched level slices")
		}
	}()
	NewMeter(NewModel(DefaultTech), []int{1, 2}, []int{1})
}

func TestEnergyMonotoneInEntriesProperty(t *testing.T) {
	// Property: within one organization (FA CAM), energy is monotone
	// non-decreasing in the entry count.
	m := NewModel(DefaultTech)
	f := func(a, b uint8) bool {
		ea := int(a%127) + 2
		eb := int(b%127) + 2
		if ea > eb {
			ea, eb = eb, ea
		}
		return m.TLBAccess(ea, ea) <= m.TLBAccess(eb, eb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMeterTotalMatchesPaperFormulaProperty(t *testing.T) {
	// Property: for arbitrary access/miss counts, Meter equals
	// n_a·E_a + n_m·E_m (the paper's §4.3.1 formula) when no CFR events occur.
	m := NewModel(DefaultTech)
	f := func(na, nm uint16) bool {
		mt := NewMeter(m, []int{8}, []int{8})
		for i := 0; i < int(na); i++ {
			mt.AddAccess(0)
		}
		for i := 0; i < int(nm); i++ {
			mt.AddMiss(0)
		}
		want := float64(na)*m.TLBAccess(8, 8) + float64(nm)*m.TLBRefill(8, 8)
		return almost(mt.TotalNJ(), want, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
