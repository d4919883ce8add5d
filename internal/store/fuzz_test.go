package store

import (
	"reflect"
	"strings"
	"testing"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/energy"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/workload"
)

// FuzzCanonicalKey pins the content-addressing contract the memo, the disk
// store and the HTTP API all depend on: sim.Options.Canonical is idempotent
// and does not mutate its input, and Key is deterministic and identical
// across every spelling of the same configuration (zero vs explicit
// defaults, including the pipeline's iL1 style which sim.Run overwrites
// from Options.Style).
func FuzzCanonicalKey(f *testing.F) {
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
			// A pipeline override whose iL1 style disagrees with
			// Options.Style: sim.Run ignores it, so Key must too.
			p := sim.DefaultPipeline()
			p.IL1Style = cache.Style(int(pipeStyle) % 3)
			opt.Pipeline = &p
		}

		var pipeBefore *sim.Options // snapshot to prove Canonical copies
		snapshot := opt
		if opt.Pipeline != nil {
			p := *opt.Pipeline
			snap := snapshot
			snap.Pipeline = &p
			pipeBefore = &snap
		}

		c1 := opt.Canonical()
		if pipeBefore != nil && !reflect.DeepEqual(*opt.Pipeline, *pipeBefore.Pipeline) {
			t.Fatalf("Canonical mutated the caller's pipeline: %+v", *opt.Pipeline)
		}
		c2 := c1.Canonical()
		if !reflect.DeepEqual(c1, c2) {
			t.Fatalf("Canonical not idempotent:\n first %+v\nsecond %+v", c1, c2)
		}

		key := Key(opt)
		if !strings.HasPrefix(key, "s1-") || len(key) != len("s1-")+64 {
			t.Fatalf("malformed key %q", key)
		}
		if Key(opt) != key || Key(c1) != key {
			t.Fatalf("Key not deterministic across canonicalization")
		}

		// Every defaulted field spelled explicitly must hash identically.
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
		if explicit.Pipeline == nil {
			p := sim.DefaultPipeline()
			explicit.Pipeline = &p
		}
		if explicit.Tech == nil {
			tech := energy.DefaultTech
			explicit.Tech = &tech
		}
		if got := Key(explicit); got != key {
			t.Fatalf("default-equivalent configs hash apart:\n zero-form %s\n explicit  %s", key, got)
		}
	})
}
