package pipeline

import (
	"testing"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/bpred"
	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/energy"
	"itlbcfr/internal/isa"
	"itlbcfr/internal/program"
	"itlbcfr/internal/tlb"
	"itlbcfr/internal/vm"
)

func testConfig(style cache.Style) Config {
	return Config{
		FetchWidth:  4,
		IssueWidth:  4,
		CommitWidth: 4,
		RUUSize:     64,
		LSQSize:     32,
		IL1Style:    style,
		IL1:         cache.Config{SizeBytes: 8 << 10, BlockBytes: 32, Assoc: 1, LatencyCycles: 1},
		DL1:         cache.Config{SizeBytes: 8 << 10, BlockBytes: 32, Assoc: 2, LatencyCycles: 1, WriteBack: true},
		L2:          cache.Config{SizeBytes: 1 << 20, BlockBytes: 128, Assoc: 2, LatencyCycles: 10},
		DRAMLatency: 100,
		DTLB:        tlb.Mono(128, 128),
		Bpred:       bpred.Default,
		MLPFactor:   0.35,
	}
}

// buildMachine assembles a machine over an image for a scheme/style.
func buildMachine(t *testing.T, img *program.Image, scheme core.Scheme, style cache.Style) *Machine {
	t.Helper()
	geom := img.Geom
	space := vm.New(geom, 1)
	itlbCfg := tlb.Mono(32, 32)
	itlb := tlb.New(itlbCfg)
	meter := energy.NewMeter(energy.NewModel(energy.DefaultTech), itlbCfg.EntriesPerLevel(), itlbCfg.AssocPerLevel())
	itlb.AttachMeter(meter)
	engine := core.NewEngine(scheme, style, geom, itlb, space, meter)
	ex := program.NewExecutor(img, 42, nil)
	m, err := New(testConfig(style), img, ex, engine, space)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// loopImage is a simple straight-line loop spanning a few pages.
func loopImage(insts int) *program.Image {
	base := addr.VAddr(0x40_0000)
	code := make([]isa.Inst, insts)
	for i := 0; i < insts-1; i++ {
		code[i] = isa.Inst{Kind: isa.IntALU}
	}
	code[insts-1] = isa.Inst{Kind: isa.Jump, Target: base}
	return program.NewImage("loop", base, addr.DefaultGeometry, code, nil)
}

func TestStraightLineIPC(t *testing.T) {
	// A tiny, cache-resident, branch-free loop should approach the fetch
	// width once warm.
	m := buildMachine(t, loopImage(512), core.Base, cache.VIPT)
	m.Run(5000)
	m.ResetStats()
	r := m.Run(50000)
	if ipc := r.IPC(); ipc < 2.0 {
		t.Errorf("warm straight-line IPC = %.2f, want > 2", ipc)
	}
	if r.Committed != 50000 {
		t.Errorf("committed = %d", r.Committed)
	}
}

func TestMispredictionCostsCycles(t *testing.T) {
	// A loop with an unpredictable branch must run slower than the same
	// loop with a fully-biased branch.
	mk := func(bias float32) *Machine {
		base := addr.VAddr(0x40_0000)
		code := []isa.Inst{
			{Kind: isa.IntALU},
			{Kind: isa.IntALU},
			{Kind: isa.CondBranch, Target: base + 16, TakenBias: bias},
			{Kind: isa.IntALU},
			{Kind: isa.IntALU},
			{Kind: isa.Jump, Target: base},
		}
		img := program.NewImage("br", base, addr.DefaultGeometry, code, nil)
		return buildMachine(t, img, core.Base, cache.VIPT)
	}
	predictable := mk(0.98)
	random := mk(0.5)
	predictable.Run(2000)
	predictable.ResetStats()
	random.Run(2000)
	random.ResetStats()
	rp := predictable.Run(30000)
	rr := random.Run(30000)
	if rr.Cycles <= rp.Cycles {
		t.Errorf("random branch (%d cycles) should be slower than predictable (%d)",
			rr.Cycles, rp.Cycles)
	}
	if rr.Bpred.Accuracy() >= rp.Bpred.Accuracy() {
		t.Error("accuracy should reflect the bias")
	}
}

func TestWrongPathFetchesHappen(t *testing.T) {
	base := addr.VAddr(0x40_0000)
	code := []isa.Inst{
		{Kind: isa.IntALU},
		{Kind: isa.CondBranch, Target: base + 16, TakenBias: 0.5},
		{Kind: isa.IntALU},
		{Kind: isa.IntALU},
		{Kind: isa.IntALU},
		{Kind: isa.Jump, Target: base},
	}
	img := program.NewImage("wp", base, addr.DefaultGeometry, code, nil)
	m := buildMachine(t, img, core.Base, cache.VIPT)
	r := m.Run(20000)
	if r.WrongPathFetches == 0 {
		t.Error("a coin-flip branch must produce wrong-path fetches")
	}
}

func TestICacheMissStalls(t *testing.T) {
	// A loop larger than the 8KB iL1 must run slower per instruction than a
	// resident one.
	small := buildMachine(t, loopImage(512), core.Base, cache.VIPT)
	big := buildMachine(t, loopImage(12*1024), core.Base, cache.VIPT) // 48KB
	small.Run(5000)
	small.ResetStats()
	big.Run(5000)
	big.ResetStats()
	rs := small.Run(40000)
	rb := big.Run(40000)
	if rb.IL1MissRate() <= rs.IL1MissRate() {
		t.Error("the big loop must miss more")
	}
	if rb.Cycles <= rs.Cycles {
		t.Error("iL1 misses must cost cycles")
	}
}

func TestOracleDesyncPanics(t *testing.T) {
	img := loopImage(64)
	m := buildMachine(t, img, core.Base, cache.VIPT)
	m.fetchPC = img.Base + 8 // desynchronize deliberately
	defer func() {
		if recover() == nil {
			t.Error("desynchronized fetch must panic")
		}
	}()
	m.Run(10)
}

func TestConfigValidation(t *testing.T) {
	cfg := testConfig(cache.VIPT)
	cfg.MLPFactor = 1.5
	if err := cfg.Validate(); err == nil {
		t.Error("MLPFactor > 1 should fail")
	}
	cfg = testConfig(cache.VIPT)
	cfg.RUUSize = 1
	if err := cfg.Validate(); err == nil {
		t.Error("RUU < issue width should fail")
	}
	cfg = testConfig(cache.VIPT)
	cfg.IL1.BlockBytes = 33
	if err := cfg.Validate(); err == nil {
		t.Error("bad iL1 geometry should fail")
	}
}

func TestResultHelpers(t *testing.T) {
	var r Result
	if r.IPC() != 0 || r.IL1MissRate() != 0 {
		t.Error("zero-value result helpers should return 0")
	}
	r.Committed = 100
	r.Cycles = 50
	if r.IPC() != 2 {
		t.Errorf("IPC = %v", r.IPC())
	}
	r.IL1.Accesses = 10
	r.IL1.Misses = 5
	if r.IL1MissRate() != 0.5 {
		t.Errorf("IL1MissRate = %v", r.IL1MissRate())
	}
}

func TestStubsDoNotCountAsCommitted(t *testing.T) {
	// An image with stubs: run exactly N and verify stubs are counted
	// separately.
	base := addr.VAddr(0x40_0000)
	code := make([]isa.Inst, 2048) // 2 pages
	for i := range code {
		code[i] = isa.Inst{Kind: isa.IntALU}
	}
	code[1023] = isa.Inst{Kind: isa.Jump, Target: base + 4096, BoundaryStub: true}
	code[2047] = isa.Inst{Kind: isa.Jump, Target: base}
	img := program.NewImage("stubs", base, addr.DefaultGeometry, code, nil)
	m := buildMachine(t, img, core.SoCA, cache.VIPT)
	r := m.Run(10000)
	if r.Committed != 10000 {
		t.Errorf("committed = %d, want exactly 10000 non-stub", r.Committed)
	}
	if r.Stubs == 0 {
		t.Error("stub executions should be counted")
	}
}

func TestDataCFRAvoidsDTLBLookups(t *testing.T) {
	base := addr.VAddr(0x40_0000)
	code := []isa.Inst{
		{Kind: isa.Load, DataStream: 0},
		{Kind: isa.Load, DataStream: 0},
		{Kind: isa.IntALU},
		{Kind: isa.Jump, Target: base},
	}
	img := program.NewImage("dcfr", base, addr.DefaultGeometry, code, nil)

	mk := func(enable bool) Result {
		geom := img.Geom
		space := vm.New(geom, 1)
		itlbCfg := tlb.Mono(32, 32)
		itlb := tlb.New(itlbCfg)
		meter := energy.NewMeter(energy.NewModel(energy.DefaultTech), itlbCfg.EntriesPerLevel(), itlbCfg.AssocPerLevel())
		itlb.AttachMeter(meter)
		engine := core.NewEngine(core.Base, cache.VIPT, geom, itlb, space, meter)
		streams := []program.DataStreamConfig{{Base: 0x1000_0000, WorkingSetBytes: 1 << 11, StrideBytes: 8}}
		ex := program.NewExecutor(img, 42, streams)
		cfg := testConfig(cache.VIPT)
		cfg.DataCFR = enable
		m, err := New(cfg, img, ex, engine, space)
		if err != nil {
			t.Fatal(err)
		}
		return m.Run(20000)
	}

	with := mk(true)
	without := mk(false)
	if with.DCFRHits == 0 {
		t.Fatal("single-stream strided loads should mostly hit the data CFR")
	}
	frac := float64(with.DCFRHits) / float64(with.DCFRHits+with.DCFRLookups)
	if frac < 0.9 {
		t.Errorf("dCFR hit fraction = %.3f, want > 0.9 for a 2KB strided stream", frac)
	}
	if with.DTLB.Accesses[0] >= without.DTLB.Accesses[0] {
		t.Errorf("dCFR must reduce dTLB accesses: %d vs %d",
			with.DTLB.Accesses[0], without.DTLB.Accesses[0])
	}
	if without.DCFRHits != 0 || without.DCFRLookups != 0 {
		t.Error("disabled dCFR must not count")
	}
}

// TestRemapShootsDownDTLBEntry is the regression test for the stale dTLB
// translation: when the OS remaps a data page, the machine's invalidation
// hook must drop the page's dTLB entry, so the next lookup walks to the new
// frame instead of hitting the old one.
func TestRemapShootsDownDTLBEntry(t *testing.T) {
	s := buildStack(t, testConfig(cache.VIPT), loopImage(64), core.Base, false)
	m := s.m
	const data = addr.VAddr(0x1000_0040)
	vpn := m.geom.VPN(data)
	st := program.Step{Kind: isa.Load, Data: data}
	m.backCycle = m.accountMem(&st, m.backCycle)
	old, ok := s.space.Lookup(vpn)
	if !ok {
		t.Fatal("the load's walk did not map its page")
	}
	if r := m.dtlb.Lookup(vpn, m.walkFn); r.HitLevel != 0 || r.PFN != old {
		t.Fatalf("warm dTLB lookup = %+v, want a level-0 hit on frame %#x", r, old)
	}
	pfn, err := s.space.Remap(vpn)
	if err != nil {
		t.Fatal(err)
	}
	if pfn == old {
		t.Fatalf("remap kept frame %#x", old)
	}
	r := m.dtlb.Lookup(vpn, m.walkFn)
	if r.PFN != pfn {
		t.Fatalf("dTLB translates remapped page %#x to stale frame %#x, want %#x", vpn, r.PFN, pfn)
	}
	if r.HitLevel != -1 {
		t.Errorf("first lookup after remap hit level %d; the entry should have been shot down", r.HitLevel)
	}
}
