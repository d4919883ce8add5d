package sim

import (
	"fmt"
	"testing"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/workload"
)

// bulkShares runs opt over each workload and returns the shares of
// committed instructions and wrong-path fetches the pipeline retired in
// plain stretches, summed over the workloads.
func bulkShares(t *testing.T, opts []Options) (committed, wrong float64) {
	t.Helper()
	var c, w, bc, bw uint64
	for _, opt := range opts {
		r := run(t, opt)
		c += r.Committed
		w += r.WrongPathFetches
		bc += r.Timing.BulkCommitted
		bw += r.Timing.BulkWrongPath
	}
	return float64(bc) / float64(c), float64(bw) / float64(w)
}

// TestBulkCoverageFloors checks, for every scheme × iL1 style, how much of
// the six profiles' work the pipeline's plain stretches retire. Bulk
// coverage is a property of the workload and the stretch rules, not of the
// host, so the floors are exact-count bounds. At 100k/20k about 86.9% of
// committed instructions are non-CTI, the ceiling; every scheme × style
// comes within a tenth of a point of it (86.8–86.9% committed, 80.7–80.8%
// wrong-path), because the engine's Fetch serves a whole stretch whether or
// not its first fetch looks up. The synthesized trace is CTI-dense, so its
// stretches are short and start mid-group (25.2% committed for every
// scheme × style).
func TestBulkCoverageFloors(t *testing.T) {
	const n, warm = 100_000, 20_000
	const minCommitted, minWrong = 0.85, 0.78
	for _, sch := range core.Schemes() {
		for _, style := range []cache.Style{cache.VIVT, cache.VIPT, cache.PIPT} {
			t.Run(fmt.Sprintf("%s_%s", sch, style), func(t *testing.T) {
				t.Parallel()
				var opts []Options
				for _, p := range workload.Profiles() {
					opts = append(opts, Options{Profile: p, Scheme: sch, Style: style,
						Instructions: n, Warmup: warm})
				}
				c, w := bulkShares(t, opts)
				t.Logf("%.1f%% committed, %.1f%% wrong-path in bulk", 100*c, 100*w)
				if c < minCommitted {
					t.Errorf("%.1f%% of committed instructions in bulk, want >= %.0f%%", 100*c, 100*minCommitted)
				}
				if w < minWrong {
					t.Errorf("%.1f%% of wrong-path fetches in bulk, want >= %.0f%%", 100*w, 100*minWrong)
				}
			})
		}
	}
	ref := synthRef(t, 3, 60_000)
	for _, sch := range core.Schemes() {
		for _, style := range []cache.Style{cache.VIVT, cache.VIPT, cache.PIPT} {
			t.Run(fmt.Sprintf("trace_%s_%s", sch, style), func(t *testing.T) {
				c, w := bulkShares(t, []Options{{Trace: ref, Scheme: sch, Style: style,
					Instructions: n, Warmup: warm}})
				t.Logf("%.1f%% committed, %.1f%% wrong-path in bulk", 100*c, 100*w)
				if c < 0.20 {
					t.Errorf("%.1f%% of committed instructions in bulk, want >= 20%%", 100*c)
				}
			})
		}
	}
}
