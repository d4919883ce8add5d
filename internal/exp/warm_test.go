package exp

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"itlbcfr/internal/workload"
)

// renderTech regenerates the technology sweep — the sweep with the highest
// warm-state sharing (three technology points per (benchmark, scheme) cell)
// — and returns its rendered bytes plus the Runner, whose memo holds every
// cell.
func renderTech(t *testing.T, disableFork bool, workers int) (string, *Runner) {
	t.Helper()
	r := NewRunner(20_000, 5_000)
	r.Workers = workers
	r.DisableWarmFork = disableFork
	tb, err := ByID(context.Background(), r, "sweep-tech")
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := WriteTables(&b, FormatText, []Table{tb}); err != nil {
		t.Fatal(err)
	}
	return b.String(), r
}

// TestWarmForkSweepByteIdentical is the sweep-level contract of the warm
// pool: a parallel regeneration with warm-state forking must render byte
// for byte what a fork-disabled regeneration renders, while executing each
// distinct warm-up exactly once. The fast-path coverage counters, which
// the rendering does not show, must agree cell by cell too.
func TestWarmForkSweepByteIdentical(t *testing.T) {
	forked, fr := renderTech(t, false, runtime.NumCPU())
	plain, pr := renderTech(t, true, runtime.NumCPU())
	fstats, pstats := fr.Stats(), pr.Stats()
	if forked != plain {
		t.Fatalf("warm-forked sweep differs from fork-disabled sweep (lengths %d vs %d)",
			len(forked), len(plain))
	}
	for _, c := range TechSweepSpec().Cells() {
		f, fok := fr.Cached(c)
		p, pok := pr.Cached(c)
		if !fok || !pok {
			t.Fatalf("%s/%s: cell missing from a memo (forked %v, plain %v)", c.BenchName(), c.Scheme, fok, pok)
		}
		fc := [2]uint64{f.Timing.BulkCommitted, f.Timing.BulkWrongPath}
		pc := [2]uint64{p.Timing.BulkCommitted, p.Timing.BulkWrongPath}
		if fc != pc {
			t.Errorf("%s/%s: bulk counters (committed, wrong-path) forked %v, plain %v",
				c.BenchName(), c.Scheme, fc, pc)
		}
		if fc[0] == 0 || fc[1] == 0 {
			t.Errorf("%s/%s: nothing retired in bulk (%v), so the counters are unchecked",
				c.BenchName(), c.Scheme, fc)
		}
	}

	// Fork-disabled: the pool is off entirely.
	if pstats.Warm.Warmups != 0 || pstats.Warm.Hits != 0 || pstats.Warm.Entries != 0 {
		t.Errorf("DisableWarmFork still used the pool: %+v", pstats.Warm)
	}

	// Forked: the Prewarm pass warms each distinct warm key exactly once
	// before the batch starts, and every executed simulation then forks a
	// pooled snapshot. The tech sweep runs 6 benchmarks × 2 schemes × 3
	// technology points = 36 simulations over 12 warm keys.
	w := fstats.Warm
	if w.Warmups != uint64(w.Entries) {
		t.Errorf("warm-ups (%d) != distinct warm states (%d): some key warmed twice",
			w.Warmups, w.Entries)
	}
	if got, want := int(w.Hits), fstats.Runs; got != want {
		t.Errorf("forks (%d) != executed runs (%d): a prewarmed sweep should fork every run",
			got, want)
	}
	if w.Warmups*3 != uint64(fstats.Runs) {
		t.Errorf("tech sweep should share each warm-up across its 3 technology points: "+
			"%d warm-ups for %d runs", w.Warmups, fstats.Runs)
	}
}

// TestTable4CompilesEachImageOnce checks that Table 4's static half reads
// the Runner's image table: the first call compiles one image per benchmark
// (shared with that benchmark's SoLA VI-PT run), and repeated calls compile
// nothing more — table entries are created only by a compilation and never
// evicted, so a constant count means no image was compiled twice. The
// rendering must match a fork-disabled Runner, which compiles fresh.
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
	plain := NewRunner(3_000, 1_000)
	plain.DisableWarmFork = true
	if got := Table4(plain).Render(); got != first {
		t.Errorf("fork-disabled Table 4 differs:\n%s\nwant:\n%s", got, first)
	}
}
