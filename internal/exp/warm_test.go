package exp

import (
	"context"
	"runtime"
	"testing"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/workload"
)

// TestWarmForkSweepByteIdentical is the sweep-level contract of the warm
// pool: a parallel regeneration of the technology sweep — the sweep with the
// highest warm-state sharing (three technology points per (benchmark,
// scheme) cell) — must memoize, for every cell, exactly the result the
// naive reference path sim.Run computes (no pool: its own compile, its own
// warm-up), host time aside, while executing each distinct warm-up exactly
// once.
func TestWarmForkSweepByteIdentical(t *testing.T) {
	r := NewRunner(20_000, 5_000)
	r.Workers = runtime.NumCPU()
	if _, err := ByID(context.Background(), r, "sweep-tech"); err != nil {
		t.Fatal(err)
	}
	for _, c := range TechSweepSpec().Cells() {
		j := r.Job(c)
		forked, ok := r.CachedJob(j)
		if !ok {
			t.Fatalf("%s/%s: cell missing from the memo", c.BenchName(), c.Scheme)
		}
		c.Instructions, c.Warmup = r.Instructions, r.Warmup
		naive, err := sim.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if want, got := ledgerLine(t, j.Key, naive), ledgerLine(t, j.Key, forked); got != want {
			t.Errorf("forked result differs from sim.Run:\n%s", ledgerDiff(want, got))
		}
		if forked.Timing.BulkCommitted == 0 || forked.Timing.BulkWrongPath == 0 {
			t.Errorf("%s/%s: nothing retired in bulk (%+v), so the counters are unchecked",
				c.BenchName(), c.Scheme, forked.Timing)
		}
	}

	// The Prewarm pass warms each distinct warm key exactly once before the
	// batch starts, and every executed simulation then forks a pooled
	// snapshot. The tech sweep runs 6 benchmarks × 2 schemes × 3 technology
	// points = 36 simulations over 12 warm keys.
	stats := r.Stats()
	w := stats.Warm
	if w.Warmups != uint64(w.Entries) {
		t.Errorf("warm-ups (%d) != distinct warm states (%d): some key warmed twice",
			w.Warmups, w.Entries)
	}
	if got, want := int(w.Hits), stats.Runs; got != want {
		t.Errorf("forks (%d) != executed runs (%d): a prewarmed sweep should fork every run",
			got, want)
	}
	if w.Warmups*3 != uint64(stats.Runs) {
		t.Errorf("tech sweep should share each warm-up across its 3 technology points: "+
			"%d warm-ups for %d runs", w.Warmups, stats.Runs)
	}
}

// TestTable4CompilesEachImageOnce checks that Table 4's static half reads
// the Runner's image table: the first call compiles one image per benchmark
// (shared with that benchmark's SoLA VI-PT run), and repeated calls compile
// nothing more — table entries are created only by a compilation and never
// evicted, so a constant count means no image was compiled twice. The
// pooled statistics must match a fresh compile (the nil pool).
func TestTable4CompilesEachImageOnce(t *testing.T) {
	r := NewRunner(3_000, 1_000)
	first := Table4(r).Render()
	images := r.Stats().Warm.Images
	if want := len(workload.Profiles()); images != want {
		t.Fatalf("Table 4 left %d images resident, want one per benchmark (%d)", images, want)
	}
	for i := 0; i < 3; i++ {
		if got := Table4(r).Render(); got != first {
			t.Fatalf("repeat %d rendered differently", i)
		}
		if got := r.Stats().Warm.Images; got != images {
			t.Fatalf("repeat %d: %d images resident, want %d: an image was compiled again", i, got, images)
		}
	}
	for _, p := range workload.Profiles() {
		opt := sim.Options{Profile: p, Scheme: core.SoLA, Style: cache.VIPT}
		pooled, err := r.pool().StaticStats(opt)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := (*sim.WarmPool)(nil).StaticStats(opt)
		if err != nil {
			t.Fatal(err)
		}
		if pooled != fresh {
			t.Errorf("%s: pooled static statistics %+v, fresh compile %+v", p.Name, pooled, fresh)
		}
	}
}
