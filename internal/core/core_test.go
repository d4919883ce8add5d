package core

import (
	"testing"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/bpred"
	"itlbcfr/internal/cache"
	"itlbcfr/internal/energy"
	"itlbcfr/internal/isa"
	"itlbcfr/internal/tlb"
	"itlbcfr/internal/vm"
)

func newEngine(s Scheme, style cache.Style) (*Engine, *energy.Meter, *vm.AddressSpace) {
	return newEngineTLB(s, style, tlb.Mono(32, 32))
}

func pcIn(page uint64, off uint64) addr.VAddr {
	return addr.VAddr(page<<12 | off)
}

// taken is a BTB-hit prediction that the CTI is taken to target.
func taken(target addr.VAddr) bpred.Prediction {
	return bpred.Prediction{Taken: true, Target: target, BTBHit: true}
}

// usedTLB fetches the single correct-path instruction at pc and reports
// whether its translation consulted the iTLB.
func usedTLB(e *Engine, pc addr.VAddr, sequential bool) bool {
	_, _, used := e.Fetch(pc, 1, sequential, false)
	return used
}

func TestSchemeParseAndProperties(t *testing.T) {
	for _, s := range Schemes() {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%v) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Error("bogus scheme should fail to parse")
	}
	if Base.UsesCFR() || !OPT.UsesCFR() {
		t.Error("UsesCFR wrong")
	}
	for _, s := range []Scheme{SoCA, SoLA, IA} {
		if !s.NeedsStubs() {
			t.Errorf("%v should need stubs", s)
		}
	}
	for _, s := range []Scheme{Base, OPT, HoA} {
		if s.NeedsStubs() {
			t.Errorf("%v should not need stubs", s)
		}
	}
}

func TestBaseLooksUpEveryFetch(t *testing.T) {
	e, m, _ := newEngine(Base, cache.VIPT)
	for i := 0; i < 10; i++ {
		if !usedTLB(e, pcIn(5, uint64(i*4)), true) {
			t.Fatal("base must consult the iTLB on every fetch")
		}
	}
	if e.Stats().Lookups != 10 || e.Stats().LookupsBase != 10 {
		t.Errorf("stats: %+v", e.Stats())
	}
	if m.TotalAccesses() != 10 {
		t.Errorf("meter accesses = %d", m.TotalAccesses())
	}
}

func TestTranslationCorrectness(t *testing.T) {
	// Whatever the scheme, the physical address must match the page table.
	for _, s := range Schemes() {
		e, _, space := newEngine(s, cache.VIPT)
		geom := space.Geometry()
		pcs := []addr.VAddr{pcIn(1, 0), pcIn(1, 4), pcIn(2, 0), pcIn(1, 8)}
		for i, pc := range pcs {
			// Arm software schemes before page changes, as their compiler
			// contract guarantees.
			if i > 0 && geom.VPN(pcs[i-1]) != geom.VPN(pc) {
				e.OnCTIPredicted(&isa.Inst{Kind: isa.Jump, Target: pc}, taken(pc))
			}
			pfn, _, _ := e.Fetch(pc, 1, false, false)
			if want := space.Walk(geom.VPN(pc)); pfn != want {
				t.Errorf("%v: frame of %#x = %#x, want %#x", s, uint64(pc), pfn, want)
			}
		}
		if e.Stats().StaleUses != 0 {
			t.Errorf("%v: stale CFR uses on correct path", s)
		}
	}
}

func TestOPTLooksUpOnlyOnPageChange(t *testing.T) {
	e, _, _ := newEngine(OPT, cache.VIPT)
	seq := []uint64{1, 1, 1, 2, 2, 1, 1} // page per fetch
	for i, pg := range seq {
		e.Fetch(pcIn(pg, uint64(i%1024)*4), 1, false, false)
	}
	// Page changes: 1 (cold), 2, 1 => 3 lookups.
	if got := e.Stats().Lookups; got != 3 {
		t.Errorf("OPT lookups = %d, want 3", got)
	}
	if e.Stats().CFRHits != 4 {
		t.Errorf("OPT CFR hits = %d, want 4", e.Stats().CFRHits)
	}
}

func TestOPTIgnoresWrongPath(t *testing.T) {
	e, m, _ := newEngine(OPT, cache.VIPT)
	e.Fetch(pcIn(1, 0), 1, true, false)
	before := m.TotalNJ()
	for i := 0; i < 50; i++ {
		e.Fetch(pcIn(uint64(10+i), 0), 1, false, true) // wrong path
	}
	if m.TotalNJ() != before {
		t.Error("OPT must not charge energy for wrong-path fetches")
	}
	if e.Stats().Lookups != 1 {
		t.Errorf("OPT lookups = %d", e.Stats().Lookups)
	}
}

func TestHoAComparatorEveryFetchLookupOnChange(t *testing.T) {
	e, m, _ := newEngine(HoA, cache.VIPT)
	e.Fetch(pcIn(1, 0), 1, true, false)
	e.Fetch(pcIn(1, 4), 1, true, false)
	e.Fetch(pcIn(2, 0), 1, true, false) // sequential page change
	st := e.Stats()
	if st.Comparisons != 3 {
		t.Errorf("comparisons = %d, want 3", st.Comparisons)
	}
	if st.Lookups != 2 {
		t.Errorf("lookups = %d, want 2", st.Lookups)
	}
	if st.LookupsBoundary != 2 {
		// Cold lookup at page 1 is sequential=true here, then page 2.
		t.Errorf("boundary lookups = %d, want 2", st.LookupsBoundary)
	}
	if m.Comparisons != 3 {
		t.Errorf("meter comparisons = %d", m.Comparisons)
	}
}

func TestSoCAArmsOnEveryCTI(t *testing.T) {
	e, _, _ := newEngine(SoCA, cache.VIPT)
	// Initial fetch: CFR invalid -> lookup.
	e.Fetch(pcIn(1, 0), 1, true, false)
	// A branch WITHIN the page still arms a lookup (conservative).
	br := &isa.Inst{Kind: isa.CondBranch, Target: pcIn(1, 64), InPage: true}
	e.OnCTIPredicted(br, taken(pcIn(1, 64)))
	if !usedTLB(e, pcIn(1, 64), false) {
		t.Error("SoCA must look up after ANY branch, even in-page")
	}
	// Sequential fetches after that use the CFR.
	if usedTLB(e, pcIn(1, 68), true) {
		t.Error("sequential fetch should ride the CFR")
	}
	if e.Stats().LookupsBranch != 1 {
		t.Errorf("branch lookups = %d", e.Stats().LookupsBranch)
	}
}

func TestSoCABoundaryStubAttribution(t *testing.T) {
	e, _, _ := newEngine(SoCA, cache.VIPT)
	e.Fetch(pcIn(1, 0), 1, true, false)
	stub := &isa.Inst{Kind: isa.Jump, Target: pcIn(2, 0), BoundaryStub: true}
	e.OnCTIPredicted(stub, taken(pcIn(2, 0)))
	e.Fetch(pcIn(2, 0), 1, false, false)
	if e.Stats().LookupsBoundary != 2 { // cold + stub
		t.Errorf("boundary lookups = %d, want 2 (cold+stub)", e.Stats().LookupsBoundary)
	}
}

func TestSoLASkipsInPageBranches(t *testing.T) {
	e, _, _ := newEngine(SoLA, cache.VIPT)
	e.Fetch(pcIn(1, 0), 1, true, false)
	inPage := &isa.Inst{Kind: isa.CondBranch, Target: pcIn(1, 64), InPage: true}
	e.OnCTIPredicted(inPage, taken(pcIn(1, 64)))
	if usedTLB(e, pcIn(1, 64), false) {
		t.Error("SoLA must ride the CFR for compiler-marked in-page branches")
	}
	cross := &isa.Inst{Kind: isa.Jump, Target: pcIn(2, 0)}
	e.OnCTIPredicted(cross, taken(pcIn(2, 0)))
	if !usedTLB(e, pcIn(2, 0), false) {
		t.Error("SoLA must look up for branches without the in-page bit")
	}
}

func TestIAPredictedTakenSamePageFree(t *testing.T) {
	e, _, _ := newEngine(IA, cache.VIPT)
	e.Fetch(pcIn(1, 0), 1, true, false)
	br := &isa.Inst{Kind: isa.CondBranch, Target: pcIn(1, 256)}
	// BTB-predicted taken to the SAME page: case A, no lookup.
	e.OnCTIPredicted(br, taken(pcIn(1, 256)))
	if usedTLB(e, pcIn(1, 256), false) {
		t.Error("IA case A: same-page predicted target must not look up")
	}
	if e.Stats().Lookups != 1 { // cold only
		t.Errorf("lookups = %d", e.Stats().Lookups)
	}
}

func TestIAPredictedTakenCrossPageLooksUpEagerly(t *testing.T) {
	e, _, _ := newEngine(IA, cache.VIPT)
	e.Fetch(pcIn(1, 0), 1, true, false)
	br := &isa.Inst{Kind: isa.Jump, Target: pcIn(7, 0)}
	e.OnCTIPredicted(br, taken(pcIn(7, 0)))
	if !e.TookLookupAtPred() {
		t.Fatal("IA must look up at predict time for a cross-page target")
	}
	// Target fetch rides the just-refilled CFR.
	if usedTLB(e, pcIn(7, 0), false) {
		t.Error("target fetch after the eager lookup should use the CFR")
	}
	if e.Stats().LookupsBranch != 1 {
		t.Errorf("branch lookups = %d", e.Stats().LookupsBranch)
	}
}

func TestIACaseBMispredictedNotTaken(t *testing.T) {
	e, _, _ := newEngine(IA, cache.VIPT)
	e.Fetch(pcIn(1, 0), 1, true, false)
	br := &isa.Inst{Kind: isa.CondBranch, Target: pcIn(1, 256)}
	pred := bpred.Prediction{Taken: false}
	e.OnCTIPredicted(br, pred)
	ck := e.Checkpoint()
	// ... wrong-path fall-through fetches happen; squash:
	e.Restore(ck)
	e.OnCTIResolved(br, true, pcIn(1, 256), false)
	// Case B: lookup even though the target is in the SAME page.
	if e.Stats().LookupsBranch != 1 {
		t.Errorf("case B lookups = %d, want 1", e.Stats().LookupsBranch)
	}
}

func TestIACaseDMispredictedTakenWithPageChange(t *testing.T) {
	e, _, _ := newEngine(IA, cache.VIPT)
	e.Fetch(pcIn(1, 0), 1, true, false)
	br := &isa.Inst{Kind: isa.CondBranch, Target: pcIn(7, 0)}
	pred := taken(pcIn(7, 0))
	ck := e.Checkpoint()
	e.OnCTIPredicted(br, pred) // eager lookup for page 7
	tookLookup := e.TookLookupAtPred()
	if !tookLookup {
		t.Fatal("expected eager lookup")
	}
	// Actually not taken: squash, restore, case D lookup for fall-through.
	e.Restore(ck)
	e.OnCTIResolved(br, false, pcIn(1, 8), tookLookup)
	if e.Stats().Lookups != 3 { // cold + eager C + case D
		t.Errorf("lookups = %d, want 3", e.Stats().Lookups)
	}
	// The CFR must now cover the fall-through page again.
	if !e.CFRState().Covers(1) {
		t.Error("CFR should cover page 1 after case D")
	}
}

func TestIAMispredictedTakenSamePageNoExtraLookup(t *testing.T) {
	e, _, _ := newEngine(IA, cache.VIPT)
	e.Fetch(pcIn(1, 0), 1, true, false)
	br := &isa.Inst{Kind: isa.CondBranch, Target: pcIn(1, 512)}
	pred := taken(pcIn(1, 512))
	ck := e.Checkpoint()
	e.OnCTIPredicted(br, pred) // same page: no lookup
	e.Restore(ck)
	e.OnCTIResolved(br, false, pcIn(1, 8), false)
	if e.Stats().Lookups != 1 { // cold only
		t.Errorf("lookups = %d, want 1", e.Stats().Lookups)
	}
}

func TestCheckpointRestoreDiscardsWrongPathCFR(t *testing.T) {
	e, _, _ := newEngine(IA, cache.VIPT)
	e.Fetch(pcIn(1, 0), 1, true, false)
	ck := e.Checkpoint()
	// Wrong path wanders into page 9 via a stub.
	stub := &isa.Inst{Kind: isa.Jump, Target: pcIn(9, 0), BoundaryStub: true}
	e.OnCTIPredicted(stub, taken(pcIn(9, 0)))
	e.Fetch(pcIn(9, 0), 1, false, true)
	if e.CFRState().VPN != 9 {
		t.Fatal("wrong-path fetch should have moved the CFR")
	}
	e.Restore(ck)
	if e.CFRState().VPN != 1 || !e.CFRState().Valid {
		t.Error("restore must rewind the CFR to the checkpoint")
	}
}

// missLooksUp reports whether a VI-VT iL1 miss at pc consulted the iTLB and
// checks that it then stalled for the serialized probe.
func missLooksUp(t *testing.T, e *Engine, pc addr.VAddr, sequential bool) bool {
	t.Helper()
	before := e.Stats().Lookups
	_, stall := e.OnIL1Miss(pc, sequential, false)
	looked := e.Stats().Lookups != before
	if looked != (stall >= 1) {
		t.Errorf("miss at %#x: lookup %v but stall %d", uint64(pc), looked, stall)
	}
	return looked
}

func TestVIVTBaseLooksUpPerMiss(t *testing.T) {
	e, _, _ := newEngine(Base, cache.VIVT)
	if !missLooksUp(t, e, pcIn(1, 0), true) {
		t.Fatal("VI-VT base miss must consult the iTLB")
	}
	// Second miss in the same page still pays (no CFR in base).
	if !missLooksUp(t, e, pcIn(1, 64), true) {
		t.Error("base has no CFR; every miss consults the iTLB")
	}
}

func TestVIVTOPTRidesCFRSamePage(t *testing.T) {
	e, _, _ := newEngine(OPT, cache.VIVT)
	e.OnIL1Miss(pcIn(1, 0), true, false)
	if missLooksUp(t, e, pcIn(1, 64), true) {
		t.Error("same-page miss should ride the CFR")
	}
	if !missLooksUp(t, e, pcIn(2, 0), true) {
		t.Error("page change at miss must look up")
	}
}

func TestVIVTSoCAConservativeAtMiss(t *testing.T) {
	e, _, _ := newEngine(SoCA, cache.VIVT)
	e.OnIL1Miss(pcIn(1, 0), true, false)
	// Branch arms the trigger; the miss is in the SAME page but SoCA pays.
	br := &isa.Inst{Kind: isa.CondBranch, Target: pcIn(1, 128)}
	e.OnCTIPredicted(br, taken(pcIn(1, 128)))
	if !missLooksUp(t, e, pcIn(1, 128), false) {
		t.Error("SoCA pays at the first miss after any branch")
	}
	// No branch since: free.
	if missLooksUp(t, e, pcIn(1, 192), true) {
		t.Error("missing again with no intervening branch should be free")
	}
}

func TestVIVTIADefersPredictLookup(t *testing.T) {
	e, m, _ := newEngine(IA, cache.VIVT)
	e.OnIL1Miss(pcIn(1, 0), true, false)
	before := m.TotalAccesses()
	br := &isa.Inst{Kind: isa.Jump, Target: pcIn(5, 0)}
	e.OnCTIPredicted(br, taken(pcIn(5, 0)))
	if m.TotalAccesses() != before {
		t.Error("VI-VT IA must not access the iTLB at predict time")
	}
	if !missLooksUp(t, e, pcIn(5, 0), false) {
		t.Error("deferred lookup must happen at the miss")
	}
}

// Under VI-VT, Fetch only charges HoA's comparator, n per call; translation
// waits for the iL1 miss.
func TestVIVTHoAComparatorCharging(t *testing.T) {
	e, m, _ := newEngine(HoA, cache.VIVT)
	for i := 0; i < 3; i++ {
		e.Fetch(pcIn(1, uint64(i*4)), 1, true, false)
	}
	if pfn, stall, used := e.Fetch(pcIn(1, 12), 4, true, false); pfn != 0 || stall != 0 || used {
		t.Errorf("VI-VT Fetch = %d, %d, %v; want 0, 0, false", pfn, stall, used)
	}
	if m.Comparisons != 7 || e.Stats().Comparisons != 7 || e.Stats().Lookups != 0 {
		t.Errorf("comparisons = %d (stats %+v), want 7 and no lookup", m.Comparisons, e.Stats())
	}
	// Other schemes charge nothing per fetch.
	e2, m2, _ := newEngine(IA, cache.VIVT)
	e2.Fetch(pcIn(1, 0), 1, true, false)
	if m2.Comparisons != 0 || m2.TotalAccesses() != 0 {
		t.Error("IA must not charge comparator or iTLB energy at a VI-VT fetch")
	}
}

func TestOSRemapInvalidatesCFR(t *testing.T) {
	e, _, space := newEngine(HoA, cache.VIPT)
	e.Fetch(pcIn(1, 0), 1, true, false)
	if !space.Pinned(1) {
		t.Fatal("the CFR page must be pinned")
	}
	space.PinWith(nil) // the OS revokes the pin to move the resident page
	if _, err := space.Remap(1); err != nil {
		t.Fatal(err)
	}
	if e.CFRState().Valid {
		t.Fatal("remap must invalidate the CFR")
	}
	// Next fetch re-walks and gets the NEW frame.
	if pfn, _, _ := e.Fetch(pcIn(1, 4), 1, true, false); pfn != space.Walk(1) {
		t.Error("post-remap fetch must see the new frame")
	}
}

// TestPinFollowsCFR is the regression test for pins that were never
// released: the pinned page is the CFR's page and no other, as the CFR moves
// from page A to page B, and after a squash restores A. Remaps are injected
// only where the OS could take an interrupt, never while a branch is in
// flight.
func TestPinFollowsCFR(t *testing.T) {
	const a, b = 1, 2
	e, _, space := newEngine(HoA, cache.VIPT)
	remaps := func(resident, other uint64) {
		t.Helper()
		if _, err := space.Remap(resident); err == nil {
			t.Errorf("remap of the resident page %d must be refused", resident)
		}
		if _, err := space.Remap(other); err != nil {
			t.Errorf("remap of page %d off the CFR: %v", other, err)
		}
		if !e.CFRState().Covers(resident) {
			t.Errorf("the CFR lost page %d", resident)
		}
	}
	space.Walk(b) // map B so that it can be remapped while A is resident
	e.Fetch(pcIn(a, 0), 1, true, false)
	remaps(a, b)
	ck := e.Checkpoint()
	e.Fetch(pcIn(b, 0), 1, false, true) // the wrong path moves the CFR to B
	if !space.Pinned(b) || space.Pinned(a) {
		t.Error("on the wrong path only B, the CFR's page, should be pinned")
	}
	e.Restore(ck) // the squash puts A back
	remaps(a, b)
	e.Fetch(pcIn(b, 4), 1, false, false) // the correct path moves to B
	remaps(b, a)
	if space.Stats().Denied != 3 {
		t.Errorf("denied remaps = %d, want 3", space.Stats().Denied)
	}
	base, _, bspace := newEngine(Base, cache.VIPT)
	base.Fetch(pcIn(a, 0), 1, true, false)
	if bspace.Pinned(a) {
		t.Error("Base keeps no CFR, so it must pin nothing")
	}
}

func TestPanicsOnStyleMisuse(t *testing.T) {
	e, _, _ := newEngine(Base, cache.VIPT)
	defer func() {
		if recover() == nil {
			t.Error("OnIL1Miss under VI-PT should panic")
		}
	}()
	e.OnIL1Miss(pcIn(1, 0), true, false)
}

func TestSchemeLookupOrderingInvariant(t *testing.T) {
	// Core invariant of the paper, VI-PT: on an identical fetch/branch
	// pattern, lookups(OPT) <= lookups(IA-ish schemes) <= lookups(SoCA)
	// <= lookups(Base). We drive the engines with a shared synthetic
	// pattern: sequential runs with occasional in-page and cross-page jumps.
	type step struct {
		pc     addr.VAddr
		isCTI  bool
		target addr.VAddr
	}
	var steps []step
	pc := pcIn(1, 0)
	pages := []uint64{1, 1, 2, 1, 3, 3, 1}
	for i := range pages {
		for k := 0; k < 20; k++ {
			steps = append(steps, step{pc: pc})
			pc += 4
		}
		next := pcIn(pages[(i+1)%len(pages)], uint64(i*128))
		steps = append(steps, step{pc: pc, isCTI: true, target: next})
		pc = next
	}
	run := func(s Scheme) uint64 {
		e, _, _ := newEngine(s, cache.VIPT)
		seq := true
		for _, st := range steps {
			e.Fetch(st.pc, 1, seq, false)
			seq = true
			if st.isCTI {
				in := &isa.Inst{Kind: isa.Jump, Target: st.target}
				e.OnCTIPredicted(in, taken(st.target))
				seq = false
			}
		}
		return e.Stats().Lookups
	}
	opt, hoa, soca, sola, ia, base := run(OPT), run(HoA), run(SoCA), run(SoLA), run(IA), run(Base)
	if !(opt <= ia && ia <= soca && soca <= base) {
		t.Errorf("ordering violated: OPT=%d IA=%d SoCA=%d Base=%d", opt, ia, soca, base)
	}
	if !(opt <= sola && sola <= soca) {
		t.Errorf("ordering violated: OPT=%d SoLA=%d SoCA=%d", opt, sola, soca)
	}
	if hoa != opt {
		t.Errorf("HoA lookup count should equal OPT (differs only in comparator energy): %d vs %d", hoa, opt)
	}
}
