package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/exp"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/workload"
)

// The golden corpus (internal/exp/testdata/golden) pins these renderings at
// this reduced length; every workload re-renders them as a program-wide
// output check.
const (
	goldenN    = 60_000
	goldenWarm = 10_000
)

var goldenIDs = []string{"table2", "table4", "table5", "table8", "sweep-dcfr"}

// paperFig4 is the paper's published VI-PT Figure 4 average iTLB energy,
// percent of the base case (exp.Figure4Spec's note). It is the reference
// for fig4_energy_err_pp; the model itself is not validated against
// hardware.
var paperFig4 = []struct {
	scheme core.Scheme
	pct    float64
}{{core.HoA, 5.69}, {core.SoCA, 12.24}, {core.SoLA, 5.01}, {core.IA, 3.82}, {core.OPT, 3.20}}

// goldenCheck renders the golden tables at the golden length and checks
// them byte for byte against the corpus, then reports fig4_energy_err_pp:
// the mean absolute error of the VI-PT Figure 4 averages against the
// paper's, in percentage points, at the same length.
func goldenCheck(ctx context.Context, b *bench) error {
	r := exp.NewRunner(goldenN, goldenWarm)
	r.Workers = b.cfg.workers
	for _, id := range goldenIDs {
		sp, err := exp.SpecByID(id)
		if err != nil {
			return err
		}
		tb, err := sp.Generate(ctx, r)
		if err != nil {
			return fmt.Errorf("golden %s: %w", id, err)
		}
		got := fmt.Sprintf("# golden: %s @ n=%d warmup=%d\n%s", id, goldenN, goldenWarm, tb.Render())
		want, err := os.ReadFile(filepath.Join(b.cfg.root, "internal", "exp", "testdata", "golden", id+".txt"))
		if err != nil {
			return err
		}
		b.check("golden.corpus", got == string(want), "%s drifted from the golden corpus", id)
	}
	if err := r.Prefetch(ctx, exp.Figure4Spec().Cells()); err != nil {
		return err
	}
	errPP, err := fig4ErrorPP(ctx, r)
	b.e2e("fig4_energy_err_pp", errPP)
	return err
}

// fig4ErrorPP is mean |measured − paper| over the five Figure 4 schemes'
// VI-PT averages, each the mean over benchmarks of the scheme's energy as
// a percentage of Base's.
func fig4ErrorPP(ctx context.Context, r *exp.Runner) (float64, error) {
	var sum float64
	for _, ref := range paperFig4 {
		var pct float64
		for _, p := range workload.Profiles() {
			base, err := r.Result(ctx, sim.Options{Profile: p, Scheme: core.Base, Style: cache.VIPT})
			if err != nil {
				return 0, err
			}
			res, err := r.Result(ctx, sim.Options{Profile: p, Scheme: ref.scheme, Style: cache.VIPT})
			if err != nil {
				return 0, err
			}
			pct += 100 * res.EnergyMJ / base.EnergyMJ
		}
		sum += math.Abs(pct/float64(len(workload.Profiles())) - ref.pct)
	}
	return sum / float64(len(paperFig4)), nil
}
