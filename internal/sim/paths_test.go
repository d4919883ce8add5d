package sim

import (
	"testing"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/workload"
)

// TestBaseRetiresInBulk checks that the Base scheme, whose eager styles
// look up the iTLB on every fetch, still takes the pipeline's bulk fast
// paths: its same-page lookups collapse into one LookupRun per run. Bulk
// coverage is a property of the workload and the fast paths, not of the
// host, so the floors are exact-count bounds (measured 64.3% and 50.2%
// over the six profiles at 100k/20k; 0% before Base was batched).
func TestBaseRetiresInBulk(t *testing.T) {
	const minCommitted, minWrong = 0.60, 0.45
	for _, style := range []cache.Style{cache.VIPT, cache.PIPT} {
		var committed, wrong, bulkCommitted, bulkWrong uint64
		for _, p := range workload.Profiles() {
			r := run(t, Options{Profile: p, Scheme: core.Base, Style: style,
				Instructions: 100_000, Warmup: 20_000})
			t.Logf("%s/%s: %.1f%% committed, %.1f%% wrong-path in bulk", p.Name, style,
				100*float64(r.Timing.BulkCommitted)/float64(r.Committed),
				100*float64(r.Timing.BulkWrongPath)/float64(r.WrongPathFetches))
			committed += r.Committed
			wrong += r.WrongPathFetches
			bulkCommitted += r.Timing.BulkCommitted
			bulkWrong += r.Timing.BulkWrongPath
		}
		if got := float64(bulkCommitted) / float64(committed); got < minCommitted {
			t.Errorf("Base %s retired %.1f%% of committed instructions in bulk, want >= %.0f%%",
				style, 100*got, 100*minCommitted)
		}
		if got := float64(bulkWrong) / float64(wrong); got < minWrong {
			t.Errorf("Base %s retired %.1f%% of wrong-path fetches in bulk, want >= %.0f%%",
				style, 100*got, 100*minWrong)
		}
	}
}
