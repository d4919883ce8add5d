package pipeline

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/cache"
	"itlbcfr/internal/compiler"
	"itlbcfr/internal/core"
	"itlbcfr/internal/energy"
	"itlbcfr/internal/isa"
	"itlbcfr/internal/program"
	"itlbcfr/internal/tlb"
	"itlbcfr/internal/trace"
	"itlbcfr/internal/vm"
	"itlbcfr/internal/workload"
)

// scalarOnly hides a source's Batcher/Snapshotter extensions, forcing the
// machine onto the fully scalar per-instruction path — the reference
// implementation the plain stretches must match bit for bit.
type scalarOnly struct{ src program.Source }

func (s scalarOnly) Step() program.Step { return s.src.Step() }

// stack is one fully assembled machine plus the components it borrows.
type stack struct {
	m      *Machine
	engine *core.Engine
	itlb   *tlb.TLB
	space  *vm.AddressSpace
	meter  *energy.Meter
}

func buildStack(t testing.TB, cfg Config, img *program.Image, scheme core.Scheme, scalar bool) *stack {
	t.Helper()
	return buildStackSource(t, cfg, tlb.Mono(32, 32), img, program.NewExecutor(img, 42, nil), scheme, scalar)
}

// buildStackSource is buildStack over the given iTLB geometry and
// correct-path source of img.
func buildStackSource(t testing.TB, cfg Config, itlbCfg tlb.Config, img *program.Image, src program.Source,
	scheme core.Scheme, scalar bool) *stack {
	t.Helper()
	geom := img.Geom
	space := vm.New(geom, 1)
	itlb := tlb.New(itlbCfg)
	meter := energy.NewMeter(energy.NewModel(energy.DefaultTech), itlbCfg.EntriesPerLevel(), itlbCfg.AssocPerLevel())
	itlb.AttachMeter(meter)
	engine := core.NewEngine(scheme, cfg.IL1Style, geom, itlb, space, meter)
	if scalar {
		src = scalarOnly{src}
	}
	m, err := New(cfg, img, src, engine, space)
	if err != nil {
		t.Fatal(err)
	}
	return &stack{m: m, engine: engine, itlb: itlb, space: space, meter: meter}
}

// run executes warm-up + measure and returns the result with the host-time
// field cleared (wall clock is the only legitimately nondeterministic
// output).
func (s *stack) run(warm, n uint64) Result {
	if warm > 0 {
		s.m.Run(warm)
		s.m.ResetStats()
		s.itlb.ResetStats()
		s.meter.Reset()
	}
	res := s.m.Run(n)
	res.WallSeconds = 0
	return res
}

func benchImage(t testing.TB, scheme core.Scheme) *program.Image {
	t.Helper()
	p, err := workload.ByName("mesa")
	if err != nil {
		t.Fatal(err)
	}
	img, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := compiler.Compile(img, compiler.Options{InsertBoundaryStubs: scheme.NeedsStubs()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// workloadSource builds fresh, independent correct-path sources of one
// workload under a scheme: the machine's image and a source walking it.
type workloadSource func(t testing.TB, scheme core.Scheme) (*program.Image, program.Source)

// mesaSource is the mesa profile under the synthetic executor.
func mesaSource(t testing.TB, scheme core.Scheme) (*program.Image, program.Source) {
	img := benchImage(t, scheme)
	return img, program.NewExecutor(img, 42, nil)
}

// traceSource replays a trace synthesized from cfg. Trace replay is
// CTI-dense, so its plain stretches are short and start mid-group.
func traceSource(cfg trace.SynthConfig) workloadSource {
	return func(t testing.TB, scheme core.Scheme) (*program.Image, program.Source) {
		t.Helper()
		var buf bytes.Buffer
		if _, err := trace.SynthesizeTo(&buf, cfg); err != nil {
			t.Fatal(err)
		}
		open := func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(buf.Bytes())), nil }
		r, err := trace.NewReplay(open, "", addr.DefaultGeometry, scheme.NeedsStubs())
		if err != nil {
			t.Fatal(err)
		}
		return r.Image(), r
	}
}

// compareStretches runs a batched and a scalarOnly machine over the same
// workload and fails on any difference in the Result, engine, iTLB or
// energy-meter statistics, or in the final iTLB contents and LRU order. It
// returns the batched side's fast-path counters.
func compareStretches(t testing.TB, cfg Config, itlbCfg tlb.Config, wl workloadSource, scheme core.Scheme,
	warm, n uint64) PathStats {
	t.Helper()
	img, src := wl(t, scheme)
	fast := buildStackSource(t, cfg, itlbCfg, img, src, scheme, false)
	img, src = wl(t, scheme)
	slow := buildStackSource(t, cfg, itlbCfg, img, src, scheme, true)
	if fast.m.batcher == nil {
		t.Fatal("the source should expose the batched interface")
	}
	if slow.m.batcher != nil {
		t.Fatal("scalarOnly wrapper leaked the batched interface")
	}
	resFast := fast.run(warm, n)
	resSlow := slow.run(warm, n)
	if !reflect.DeepEqual(resFast, resSlow) {
		t.Errorf("bulk result diverges from scalar:\nbulk:   %+v\nscalar: %+v", resFast, resSlow)
	}
	if ef, es := fast.engine.Stats(), slow.engine.Stats(); ef != es {
		t.Errorf("engine stats diverge:\nbulk:   %+v\nscalar: %+v", ef, es)
	}
	if tf, ts := fast.itlb.Stats(), slow.itlb.Stats(); !reflect.DeepEqual(tf, ts) {
		t.Errorf("iTLB stats diverge:\nbulk:   %+v\nscalar: %+v", tf, ts)
	}
	if !reflect.DeepEqual(fast.itlb.Snapshot(), slow.itlb.Snapshot()) {
		t.Error("final iTLB contents or LRU order diverge")
	}
	if !reflect.DeepEqual(fast.meter, slow.meter) {
		t.Errorf("energy meter counts diverge:\nbulk:   %+v\nscalar: %+v", fast.meter, slow.meter)
	}
	if p := slow.m.PathStats(); p != (PathStats{}) {
		t.Errorf("scalar reference retired work in bulk: %+v", p)
	}
	return fast.m.PathStats()
}

// TestBulkPathMatchesScalar pins the plain stretches (correct-path and
// wrong-path, the engine's batched translate calls and Base's LookupRun) to
// the scalar reference: for every workload × iTLB organization × scheme ×
// iL1 style the entire Result, engine statistics, iTLB statistics, final
// iTLB contents and LRU order, and energy-meter counts must be identical
// whether or not the source exposes the batched interface. An unbatched
// source takes no stretch, so the reference side is fully scalar. mesa's
// subtests carry no workload prefix; the synthesized trace's carry
// "trace_".
func TestBulkPathMatchesScalar(t *testing.T) {
	workloads := []struct {
		prefix string
		src    workloadSource
	}{
		{"", mesaSource},
		{"trace_", traceSource(trace.SynthConfig{Seed: 3, Instructions: 30_000})},
	}
	// prefix names the subtests; the default iTLB's carry none.
	itlbs := []struct {
		prefix string
		cfg    tlb.Config
	}{
		{"", tlb.Mono(32, 32)},
		{"serial1+32_", tlb.TwoLevel(1, 1, 32, 32, false)},
		{"parallel4+32_", tlb.TwoLevel(4, 4, 32, 32, true)},
	}
	styles := []cache.Style{cache.VIVT, cache.VIPT, cache.PIPT}
	for _, wl := range workloads {
		for _, it := range itlbs {
			for _, scheme := range core.Schemes() {
				for _, style := range styles {
					t.Run(fmt.Sprintf("%s%s%s_%s", wl.prefix, it.prefix, scheme, style), func(t *testing.T) {
						p := compareStretches(t, testConfig(style), it.cfg, wl.src, scheme, 2_000, 20_000)
						if p.BulkCommitted == 0 || p.BulkWrongPath == 0 {
							t.Errorf("a stretch kind retired nothing, so the comparison does not cover it: %+v", p)
						}
					})
				}
			}
		}
	}
}

// FuzzStretchesMatchScalar holds the plain stretches to the scalar slots
// over synthesized traces of arbitrary seed and code footprint, under any
// scheme, iL1 style and iTLB shape (see compareStretches).
func FuzzStretchesMatchScalar(f *testing.F) {
	f.Add(uint64(3), uint8(11), uint16(574), uint8(0), uint8(1), uint8(0))
	f.Add(uint64(7), uint8(0), uint16(0), uint8(5), uint8(0), uint8(1))
	f.Add(uint64(11), uint8(30), uint16(2000), uint8(3), uint8(2), uint8(2))
	f.Add(uint64(1), uint8(2), uint16(100), uint8(2), uint8(1), uint8(3))
	itlbs := []tlb.Config{
		tlb.Mono(32, 32),
		tlb.TwoLevel(1, 1, 32, 32, false),
		tlb.TwoLevel(4, 4, 32, 32, true),
		tlb.Mono(4, 4),
		tlb.Mono(16, 2),
	}
	styles := []cache.Style{cache.VIVT, cache.VIPT, cache.PIPT}
	f.Fuzz(func(t *testing.T, seed uint64, funcs uint8, funcInsts uint16, scheme, style, shape uint8) {
		cfg := trace.SynthConfig{
			Seed:         seed,
			Instructions: 4_000,
			Functions:    1 + int(funcs)%32,
			FuncInsts:    66 + int(funcInsts)%2048,
		}
		sch := core.Schemes()[int(scheme)%len(core.Schemes())]
		compareStretches(t, testConfig(styles[int(style)%len(styles)]), itlbs[int(shape)%len(itlbs)],
			traceSource(cfg), sch, 500, 5_000)
	})
}

// TestPathStatsCoverMeasuredWindow pins the fast-path counters to the
// measured window: after ResetStats they count exactly what a machine that
// never reset counts over the same instructions, no warm-up included.
func TestPathStatsCoverMeasuredWindow(t *testing.T) {
	const warm, n = 3_000, 20_000
	img := benchImage(t, core.Base)
	cfg := testConfig(cache.VIPT)
	measured := buildStack(t, cfg, img, core.Base, false)
	measured.m.Run(warm)
	measured.m.ResetStats()
	measured.m.Run(n)
	whole := buildStack(t, cfg, img, core.Base, false)
	whole.m.Run(warm)
	before := whole.m.PathStats()
	whole.m.Run(warm + n)
	after := whole.m.PathStats()
	want := PathStats{after.BulkCommitted - before.BulkCommitted, after.BulkWrongPath - before.BulkWrongPath}
	if got := measured.m.PathStats(); got != want || before.BulkCommitted == 0 {
		t.Errorf("measured-window counters %+v, want %+v (warm-up counted %+v)", got, want, before)
	}
}

// TestBulkPathDisabledUnderCadence checks the guard that keeps the
// correct-path stretches — which cannot observe mid-stretch OS-pressure
// events — off whenever a periodic cadence is configured, by comparing
// against the scalar reference under both cadences at once.
func TestBulkPathDisabledUnderCadence(t *testing.T) {
	img := benchImage(t, core.IA)
	cfg := testConfig(cache.VIPT)
	cfg.ContextSwitchEvery = 700
	cfg.RemapEvery = 1100
	fast := buildStack(t, cfg, img, core.IA, false)
	slow := buildStack(t, cfg, img, core.IA, true)
	resFast := fast.run(1_000, 10_000)
	resSlow := slow.run(1_000, 10_000)
	if !reflect.DeepEqual(resFast, resSlow) {
		t.Errorf("cadenced result diverges:\nbatched: %+v\nscalar:  %+v", resFast, resSlow)
	}
	if resFast.ContextSwitches == 0 || resFast.Remaps == 0 {
		t.Fatalf("cadence did not fire: %d switches, %d remaps", resFast.ContextSwitches, resFast.Remaps)
	}
}

// branchyImage builds a loop with a balanced conditional branch so the
// bimodal predictor mispredicts regularly, and no memory instructions so
// the back end stays off the critical path.
func branchyImage(insts int) *program.Image {
	base := addr.VAddr(0x40_0000)
	code := make([]isa.Inst, insts)
	for i := range code {
		code[i] = isa.Inst{Kind: isa.IntALU}
	}
	// A balanced branch mid-loop: taken skips ahead within the image.
	mid := insts / 2
	code[mid] = isa.Inst{Kind: isa.CondBranch, Target: addr.InstAddr(base, mid+8), TakenBias: 0.5}
	code[insts-1] = isa.Inst{Kind: isa.Jump, Target: base}
	return program.NewImage("branchy", base, addr.DefaultGeometry, code, nil)
}

// TestPIPTMispredictSerialization is the regression test for the
// mispredict-path serialization bug: under PI-PT every fetch group that
// consulted the iTLB (all of them, under Base) pays one extra front-end
// cycle, *including* the group that ends on a misprediction. With
// FetchWidth=1 and no memory instructions the PI-PT run must therefore cost
// exactly one cycle more per committed instruction than the VI-PT run —
// when mispredicted groups skip the charge, the delta falls short by one
// cycle per misprediction.
func TestPIPTMispredictSerialization(t *testing.T) {
	img := branchyImage(512)
	const n = 30_000
	run := func(style cache.Style) Result {
		cfg := testConfig(style)
		cfg.FetchWidth = 1
		s := buildStack(t, cfg, img, core.Base, false)
		return s.run(0, n)
	}
	vipt := run(cache.VIPT)
	pipt := run(cache.PIPT)
	viptWrong := vipt.Bpred.DirWrong + vipt.Bpred.TargetWrong
	piptWrong := pipt.Bpred.DirWrong + pipt.Bpred.TargetWrong
	if viptWrong == 0 {
		t.Fatal("test image produced no mispredictions; the regression is unexercised")
	}
	if piptWrong != viptWrong {
		t.Fatalf("styles diverged architecturally: %d vs %d mispredicts", piptWrong, viptWrong)
	}
	delta := pipt.Cycles - vipt.Cycles
	if delta != n {
		t.Errorf("PI-PT serialization delta = %d cycles over %d single-instruction groups; "+
			"want exactly %d (mispredicted groups must pay the serialization cycle too)",
			delta, n, n)
	}
}

// TestCadenceLifetimeInvariance is the regression test for the cadence
// bug: the periodic OS-pressure events key off the machine's lifetime
// commit counter, so moving the warm-up boundary must not move the events.
// With ContextSwitchEvery=400, warm-up 300 and a 1000-instruction measured
// window, the events land at lifetime commits 400, 800 and 1200 — all
// three inside the window. An implementation that restarts the cadence at
// ResetStats would fire at 700 and 1100 instead and count only two.
func TestCadenceLifetimeInvariance(t *testing.T) {
	img := benchImage(t, core.Base)
	cfg := testConfig(cache.VIPT)
	cfg.ContextSwitchEvery = 400
	cfg.RemapEvery = 400
	s := buildStack(t, cfg, img, core.Base, false)
	res := s.run(300, 1_000)
	if res.ContextSwitches != 3 {
		t.Errorf("context switches in measured window = %d, want 3 (lifetime commits 400, 800, 1200)",
			res.ContextSwitches)
	}
	if res.Remaps != 3 {
		t.Errorf("remaps in measured window = %d, want 3 (lifetime commits 400, 800, 1200)", res.Remaps)
	}
}

// TestCheckpointForkDeterminism pins the Checkpoint/Restore contract: a
// machine restored from a mid-run snapshot (onto a *fresh* stack, with the
// borrowed engine/iTLB/address-space restored alongside) must produce the
// byte-identical result the original machine produces when simply allowed
// to continue. Under remap pressure that includes which remaps the pinned
// CFR page defers, so the pin must follow the restored CFR.
func TestCheckpointForkDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name       string
		scheme     core.Scheme
		remapEvery uint64
	}{{"IA", core.IA, 0}, {"OPT", core.OPT, 0}, {"IA_remap", core.IA, 1_500}} {
		scheme := tc.scheme
		t.Run(tc.name, func(t *testing.T) {
			img := benchImage(t, scheme)
			cfg := testConfig(cache.VIPT)
			cfg.RemapEvery = tc.remapEvery

			orig := buildStack(t, cfg, img, scheme, false)
			orig.m.Run(5_000)
			orig.m.ResetStats()
			orig.itlb.ResetStats()
			orig.meter.Reset()
			mst, ok := orig.m.Checkpoint()
			if !ok {
				t.Fatal("executor source must be checkpointable")
			}
			est := orig.engine.Checkpoint()
			tst := orig.itlb.Snapshot()
			vst := orig.space.Snapshot()

			cont := orig.m.Run(10_000)
			cont.WallSeconds = 0

			fork := buildStack(t, cfg, img, scheme, false)
			fork.space.Restore(vst)
			if err := fork.itlb.Restore(tst); err != nil {
				t.Fatal(err)
			}
			fork.engine.Restore(est)
			if err := fork.m.Restore(mst); err != nil {
				t.Fatal(err)
			}
			forked := fork.m.Run(10_000)
			forked.WallSeconds = 0

			if !reflect.DeepEqual(cont, forked) {
				t.Errorf("forked run diverges from continued run:\ncontinued: %+v\nforked:    %+v", cont, forked)
			}
			if eo, ef := orig.engine.Stats(), fork.engine.Stats(); eo != ef {
				t.Errorf("engine stats diverge:\ncontinued: %+v\nforked:    %+v", eo, ef)
			}
			if tc.remapEvery > 0 && (forked.RemapsDeferred == 0 || forked.RemapsDeferred == forked.Remaps) {
				t.Errorf("%d of %d remaps deferred; the pinned CFR page should defer some, not all",
					forked.RemapsDeferred, forked.Remaps)
			}
		})
	}
}
