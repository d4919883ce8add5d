package pipeline

import (
	"fmt"
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
	"itlbcfr/internal/vm"
	"itlbcfr/internal/workload"
)

// scalarOnly hides a source's Batcher/Snapshotter extensions, forcing the
// machine onto the fully scalar per-instruction path — the reference
// implementation the bulk fast path must match bit for bit.
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
	geom := img.Geom
	space := vm.New(geom, 1)
	itlbCfg := tlb.Mono(32, 32)
	itlb := tlb.New(itlbCfg)
	meter := energy.NewMeter(energy.NewModel(energy.DefaultTech), itlbCfg.EntriesPerLevel(), itlbCfg.AssocPerLevel())
	itlb.AttachMeter(meter)
	engine := core.NewEngine(scheme, cfg.IL1Style, geom, itlb, space, meter)
	var src program.Source = program.NewExecutor(img, 42, nil)
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

// TestBulkPathMatchesScalar pins the bulk fast path (correct-path fetch
// groups, wrong-path groups, the engine's batched translate calls, the TLB
// hot-slot memo) to the scalar reference: for every scheme × iL1 style the
// entire Result, engine statistics, iTLB statistics and accumulated energy
// must be identical whether or not the source exposes the batched
// interface.
func TestBulkPathMatchesScalar(t *testing.T) {
	schemes := []core.Scheme{core.Base, core.OPT, core.HoA, core.SoCA, core.SoLA, core.IA}
	styles := []cache.Style{cache.VIVT, cache.VIPT, cache.PIPT}
	for _, scheme := range schemes {
		for _, style := range styles {
			t.Run(fmt.Sprintf("%s_%s", scheme, style), func(t *testing.T) {
				img := benchImage(t, scheme)
				cfg := testConfig(style)
				fast := buildStack(t, cfg, img, scheme, false)
				slow := buildStack(t, cfg, img, scheme, true)
				if fast.m.batcher == nil {
					t.Fatal("executor should expose the batched interface")
				}
				if slow.m.batcher != nil {
					t.Fatal("scalarOnly wrapper leaked the batched interface")
				}
				resFast := fast.run(2_000, 20_000)
				resSlow := slow.run(2_000, 20_000)
				if !reflect.DeepEqual(resFast, resSlow) {
					t.Errorf("bulk result diverges from scalar:\nbulk:   %+v\nscalar: %+v", resFast, resSlow)
				}
				if ef, es := fast.engine.Stats(), slow.engine.Stats(); ef != es {
					t.Errorf("engine stats diverge:\nbulk:   %+v\nscalar: %+v", ef, es)
				}
				if tf, ts := fast.itlb.Stats(), slow.itlb.Stats(); !reflect.DeepEqual(tf, ts) {
					t.Errorf("iTLB stats diverge:\nbulk:   %+v\nscalar: %+v", tf, ts)
				}
				if nf, ns := fast.meter.TotalNJ(), slow.meter.TotalNJ(); nf != ns {
					t.Errorf("energy diverges: bulk %v nJ, scalar %v nJ", nf, ns)
				}
			})
		}
	}
}

// TestBulkPathDisabledUnderCadence checks the guard that keeps the bulk
// path — which cannot observe mid-group OS-pressure events — off whenever a
// periodic cadence is configured, by comparing against the scalar reference
// under both cadences at once.
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
	return program.NewImage("branchy", base, addr.DefaultGeometry, code)
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
// to continue.
func TestCheckpointForkDeterminism(t *testing.T) {
	for _, scheme := range []core.Scheme{core.IA, core.OPT} {
		t.Run(scheme.String(), func(t *testing.T) {
			img := benchImage(t, scheme)
			cfg := testConfig(cache.VIPT)

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
		})
	}
}
