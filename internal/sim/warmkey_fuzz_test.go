package sim_test

import (
	"fmt"
	"testing"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/energy"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/store"
	"itlbcfr/internal/workload"
)

// FuzzWarmKeyFollowsStoreKey pins that the warm key never splits what the
// result store treats as one simulation: options with equal store.Key must
// have equal warm keys, or a spelled-out default would warm up a second time.
// The opposite failure, a warm key merging runs it must keep apart, is
// TestWarmKeyCoversEveryOption's job. Candidates are several spellings of one
// configuration plus trace workloads with and without a leftover profile;
// the seeds are FuzzCanonicalKey's (internal/store).
func FuzzWarmKeyFollowsStoreKey(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(1), uint8(1), uint64(0), uint64(0), false, false, false)
	f.Add(uint8(5), uint8(5), uint8(2), uint8(0), uint64(250_000), uint64(50_000), true, true, true)
	f.Add(uint8(3), uint8(2), uint8(0), uint8(2), uint64(1), uint64(0), true, false, true)
	f.Fuzz(func(t *testing.T, bench, scheme, style, pipeStyle uint8,
		instr, warmup uint64, explicitITLB, explicitPage, withPipeline bool) {
		profiles := workload.Profiles()
		opt := sim.Options{
			Profile:      profiles[int(bench)%len(profiles)],
			Scheme:       core.Schemes()[int(scheme)%len(core.Schemes())],
			Style:        cache.Style(int(style) % 3),
			Instructions: instr,
			Warmup:       warmup,
		}
		if explicitITLB {
			opt.ITLB = sim.DefaultITLB()
		}
		if explicitPage {
			opt.PageBytes = 4096
		}
		if withPipeline {
			p := sim.DefaultPipeline()
			p.IL1Style = cache.Style(int(pipeStyle) % 3)
			opt.Pipeline = &p
		}

		explicit := opt
		if explicit.Instructions == 0 {
			explicit.Instructions = sim.DefaultInstructions
		}
		if explicit.Warmup == 0 {
			explicit.Warmup = sim.DefaultWarmup
		}
		if len(explicit.ITLB.Levels) == 0 {
			explicit.ITLB = sim.DefaultITLB()
		}
		if explicit.PageBytes == 0 {
			explicit.PageBytes = 4096
		}
		tech := energy.DefaultTech
		explicit.Tech = &tech

		restyled := opt
		p := sim.DefaultPipeline()
		p.IL1Style = cache.Style(int(pipeStyle+1) % 3)
		restyled.Pipeline = &p

		traced := opt
		traced.Trace = &sim.TraceRef{Key: fmt.Sprintf("t1-%02x", bench)}
		otherProfile := traced
		otherProfile.Profile = profiles[int(bench+1)%len(profiles)]

		cands := []sim.Options{opt, explicit, opt.Canonical(), restyled, traced, otherProfile}
		for i, a := range cands {
			for _, b := range cands[i+1:] {
				if store.Key(a) == store.Key(b) && sim.WarmKey(a) != sim.WarmKey(b) {
					t.Fatalf("equal store keys, different warm keys:\n%+v\n%+v\nwarm %s\nwarm %s",
						a, b, sim.WarmKey(a), sim.WarmKey(b))
				}
			}
		}
		if store.Key(opt) != store.Key(explicit) || store.Key(traced) != store.Key(otherProfile) {
			t.Fatal("spellings of one configuration hash apart; the implication above checked nothing")
		}
	})
}
