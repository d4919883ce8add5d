package bpred

import (
	"fmt"
	"testing"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/isa"
	"itlbcfr/internal/xrand"
)

// ctiStep is one predicted-and-resolved control transfer.
type ctiStep struct {
	pc, target addr.VAddr
	kind       isa.Kind
	taken      bool
}

// ctiStream draws n control transfers over `sites` PCs: a mix of biased
// conditionals, jumps, calls, returns and indirect jumps with a few
// targets each, so the BTB fills, conflicts and retrains.
func ctiStream(seed uint64, n, sites int) []ctiStep {
	rng := xrand.New(seed)
	kinds := []isa.Kind{isa.CondBranch, isa.CondBranch, isa.Jump, isa.Call, isa.Ret, isa.IndJump}
	out := make([]ctiStep, n)
	for i := range out {
		site := rng.Intn(sites)
		k := kinds[site%len(kinds)]
		s := ctiStep{pc: addr.VAddr(0x40_0000 + 4*site), kind: k, taken: true,
			target: addr.VAddr(0x80_0000 + 64*site)}
		switch k {
		case isa.CondBranch:
			s.taken = rng.Bool(0.2 + 0.6*float64(site%3)/2)
		case isa.IndJump, isa.Ret:
			s.target += addr.VAddr(4 * rng.Intn(3))
		}
		out[i] = s
	}
	return out
}

// TestSnapshotRestoreExact pins the sparse snapshot's exactness, the
// predictor counterpart of the cache package's FuzzSnapshotRestore. A
// predictor runs a stream and is snapshotted part-way; the snapshot is
// restored into a fresh predictor and into one dirtied by a different
// stream. All then take the same suffix, and every prediction, every
// resolution and the final Stats must equal those of a predictor that ran
// the whole stream unsnapshotted.
func TestSnapshotRestoreExact(t *testing.T) {
	cases := []struct {
		name      string
		cfg       Config
		sites, at int
	}{
		{"default/cold", Default, 300, 0},
		{"default/early", Default, 300, 40},
		{"default/warm", Default, 3000, 2500},
		{"tiny-btb", Config{BimodalEntries: 64, BTBEntries: 16, BTBAssoc: 2, RASEntries: 4, MispredictPenalty: 7}, 200, 700},
		{"no-ras", Config{BimodalEntries: 256, BTBEntries: 64, BTBAssoc: 4, MispredictPenalty: 3}, 150, 900},
		{"direct-btb", Config{BimodalEntries: 128, BTBEntries: 32, BTBAssoc: 1, RASEntries: 2, MispredictPenalty: 7}, 100, 1999},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stream := ctiStream(uint64(ci)+1, 3000, c.sites)
			plain, src := New(c.cfg), New(c.cfg)
			step := func(p *Predictor, s ctiStep) string {
				pred := p.Predict(s.pc, s.kind)
				ok := p.Resolve(s.pc, s.kind, pred, s.taken, s.target)
				return fmt.Sprintf("%+v %v", pred, ok)
			}
			for _, s := range stream[:c.at] {
				step(plain, s)
				step(src, s)
			}
			st := src.Snapshot()

			fresh := New(c.cfg)
			if err := fresh.Restore(st); err != nil {
				t.Fatal(err)
			}
			dirty := New(c.cfg)
			for _, s := range ctiStream(99, 1500, 2*c.sites) {
				step(dirty, s)
			}
			if err := dirty.Restore(st); err != nil {
				t.Fatal(err)
			}
			forks := map[string]*Predictor{"source": src, "fresh": fresh, "dirtied": dirty}
			for i, s := range stream[c.at:] {
				want := step(plain, s)
				for name, p := range forks {
					if got := step(p, s); got != want {
						t.Fatalf("%s restore: step %d: %s, unsnapshotted predictor %s", name, c.at+i, got, want)
					}
				}
			}
			for name, p := range forks {
				if p.Stats() != plain.Stats() {
					t.Fatalf("%s restore: stats %+v, unsnapshotted predictor %+v", name, p.Stats(), plain.Stats())
				}
			}
		})
	}
}

// TestSnapshotGeometryMismatch checks that a restore refuses a snapshot of
// a differently sized BTB.
func TestSnapshotGeometryMismatch(t *testing.T) {
	small := Default
	small.BTBEntries = 512
	if err := New(small).Restore(New(Default).Snapshot()); err == nil {
		t.Error("restore across BTB sizes succeeded, want an error")
	}
}
