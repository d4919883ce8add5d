package pipeline

import (
	"fmt"
	"testing"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/isa"
	"itlbcfr/internal/program"
)

// straightImage is the smallest interesting program: a page-crossing loop
// of plain ALU instructions closed by one unconditional jump. The only
// control flow is perfectly predictable after the first trip, so cycle
// counts isolate the fetch/translate timing model from predictor noise.
func straightImage(insts int) *program.Image {
	base := addr.VAddr(0x40_0000)
	code := make([]isa.Inst, insts)
	for i := range code {
		code[i] = isa.Inst{Kind: isa.IntALU}
	}
	code[insts-1] = isa.Inst{Kind: isa.Jump, Target: base}
	return program.NewImage("straight", base, addr.DefaultGeometry, code, nil)
}

// timingCell pins the exact cycle count and event counts of one
// mispredict × cadence × style combination.
type timingCell struct {
	image    string      // "straight" (no mispredicts) or "branchy" (regular mispredicts)
	style    cache.Style // iL1 indexing/tagging style
	cswitch  uint64      // ContextSwitchEvery cadence (0 = off)
	cycles   uint64      // exact cycles for the 4000-instruction run
	wrong    uint64      // exact mispredictions (DirWrong + TargetWrong)
	switches uint64      // exact context switches fired
}

// TestTimingMatrix pins the pipeline's cycle-level timing semantics across
// the mispredict × context-switch × IL1Style matrix on tiny hand-built
// programs. The expected numbers were generated from the model once, after
// the PI-PT mispredict-serialization and cadence-phase fixes, and are
// deliberately hardcoded: any future inner-loop rewrite that shifts a
// single cycle — a lost PI-PT serialization charge, a cadence that drifts
// with phase, a flush misaccounted — fails this table rather than silently
// re-baselining the paper's Table 8 inputs.
//
// Invariants the table encodes, beyond the raw numbers:
//   - On straight-line code PI-PT costs exactly one extra front-end cycle
//     per fetch group over VI-PT — 1000 cycles for 4000 instructions at
//     FetchWidth 4, with the mispredicted group charged too (satellite 1).
//   - VI-VT costs slightly more than VI-PT on the quiet runs: translation
//     is off its hit path but serializes on each of the image's cold iL1
//     misses, which VI-PT overlaps.
//   - Context switches flush, so cadenced runs cost strictly more cycles,
//     and the switch count is cadence-exact regardless of style.
func TestTimingMatrix(t *testing.T) {
	const n = 4_000
	images := map[string]*program.Image{
		"straight": straightImage(64),
		"branchy":  branchyImage(64),
	}
	expect := []timingCell{
		{"straight", cache.VIVT, 0, 1450, 1, 0},
		{"straight", cache.VIPT, 0, 1441, 1, 0},
		{"straight", cache.PIPT, 0, 2441, 1, 0},
		{"straight", cache.VIVT, 500, 1506, 1, 8},
		{"straight", cache.VIPT, 500, 1847, 1, 8},
		{"straight", cache.PIPT, 500, 2847, 1, 8},
		{"branchy", cache.VIVT, 0, 1760, 40, 0},
		{"branchy", cache.VIPT, 0, 1751, 40, 0},
		{"branchy", cache.PIPT, 0, 2793, 40, 0},
		{"branchy", cache.VIVT, 500, 1816, 40, 8},
		{"branchy", cache.VIPT, 500, 2157, 40, 8},
		{"branchy", cache.PIPT, 500, 3199, 40, 8},
	}
	for _, want := range expect {
		name := fmt.Sprintf("%s_%s_cs%d", want.image, want.style, want.cswitch)
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(want.style)
			cfg.ContextSwitchEvery = want.cswitch
			s := buildStack(t, cfg, images[want.image], core.Base, false)
			res := s.run(0, n)
			got := timingCell{
				image:    want.image,
				style:    want.style,
				cswitch:  want.cswitch,
				cycles:   res.Cycles,
				wrong:    res.Bpred.DirWrong + res.Bpred.TargetWrong,
				switches: res.ContextSwitches,
			}
			if got != want {
				t.Errorf("timing drifted:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}

	// Cross-cell invariants, so a uniform re-baseline can't slip through
	// as "all cells moved together".
	byKey := func(img string, style cache.Style, cs uint64) timingCell {
		for _, c := range expect {
			if c.image == img && c.style == style && c.cswitch == cs {
				return c
			}
		}
		t.Fatalf("missing cell %s/%s/%d", img, style, cs)
		return timingCell{}
	}
	for _, img := range []string{"straight", "branchy"} {
		for _, cs := range []uint64{0, 500} {
			vipt, pipt := byKey(img, cache.VIPT, cs), byKey(img, cache.PIPT, cs)
			if pipt.cycles <= vipt.cycles {
				t.Errorf("%s/cs%d: PI-PT (%d) must pay serialization over VI-PT (%d)",
					img, cs, pipt.cycles, vipt.cycles)
			}
		}
		for _, style := range []cache.Style{cache.VIVT, cache.VIPT, cache.PIPT} {
			quiet, cadenced := byKey(img, style, 0), byKey(img, style, 500)
			if cadenced.cycles <= quiet.cycles {
				t.Errorf("%s/%s: context-switch flushes must cost cycles (%d vs %d)",
					img, style, cadenced.cycles, quiet.cycles)
			}
		}
	}

	// The satellite-1 pin in its purest form: straight-line code fetches
	// exactly n/FetchWidth groups, and PI-PT serialization charges each of
	// them — including the one ending on the first-trip jump mispredict —
	// exactly one cycle over VI-PT.
	groups := uint64(n) / uint64(testConfig(cache.PIPT).FetchWidth)
	delta := byKey("straight", cache.PIPT, 0).cycles - byKey("straight", cache.VIPT, 0).cycles
	if delta != groups {
		t.Errorf("straight-line PI-PT serialization delta = %d cycles, want one per fetch group (%d)",
			delta, groups)
	}
}
