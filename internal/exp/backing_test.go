package exp

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/energy"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/store"
	"itlbcfr/internal/workload"
)

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func renderSpec(t *testing.T, r *Runner, s Spec) []byte {
	t.Helper()
	tb, err := s.Generate(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := WriteTables(&b, FormatText, []Table{tb}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestWarmRegeneration is the store's acceptance contract: a second
// regeneration against a warm cache runs zero simulations, renders
// byte-identical output to both the cold cached run and a cacheless run,
// and is at least 10x faster than cold.
func TestWarmRegeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("timed regeneration in -short mode")
	}
	const n, warm = 500_000, 100_000
	spec := Table2Spec()
	st := openStore(t)

	plain := renderSpec(t, NewRunner(n, warm), spec)

	cold := NewRunner(n, warm)
	cold.Backing = st
	t0 := time.Now()
	coldOut := renderSpec(t, cold, spec)
	coldWall := time.Since(t0)
	if cold.Runs() == 0 {
		t.Fatal("cold run executed no simulations")
	}

	warmR := NewRunner(n, warm)
	warmR.Backing = st
	t1 := time.Now()
	warmOut := renderSpec(t, warmR, spec)
	warmWall := time.Since(t1)

	if warmR.Runs() != 0 {
		t.Errorf("warm regeneration executed %d simulations, want 0", warmR.Runs())
	}
	if s := warmR.Stats(); s.BackingHits != cold.Runs() {
		t.Errorf("warm run had %d backing hits, want %d", s.BackingHits, cold.Runs())
	}
	if !bytes.Equal(coldOut, warmOut) {
		t.Error("warm output differs from cold output")
	}
	if !bytes.Equal(plain, warmOut) {
		t.Error("cached output differs from cacheless output")
	}
	if warmWall*10 > coldWall {
		t.Errorf("warm regeneration not >=10x faster: cold %v, warm %v", coldWall, warmWall)
	}
}

// failingBacking misses every Get and fails every Put.
type failingBacking struct{}

func (failingBacking) Get(string) (sim.Result, bool) { return sim.Result{}, false }
func (failingBacking) Put(string, sim.Result) error  { return errors.New("backing broken") }

// TestBackingFailureDegrades: a broken backing store costs reuse, never
// correctness — lookups compute and no error reaches the caller.
func TestBackingFailureDegrades(t *testing.T) {
	r := NewRunner(20_000, 5_000)
	r.Backing = failingBacking{}
	opt := sim.Options{Profile: workload.Mesa(), Scheme: core.Base, Style: cache.VIPT}
	res, err := r.Result(context.Background(), opt)
	if err != nil {
		t.Fatalf("broken backing leaked an error: %v", err)
	}
	if res.Committed == 0 {
		t.Fatal("broken backing produced an empty result")
	}
	if s := r.Stats(); s.PutErrors != 1 || s.Runs != 1 {
		t.Errorf("stats = %+v, want 1 run and 1 put error", s)
	}
	// Prefetch path degrades identically.
	if err := r.Prefetch(context.Background(), Table5Spec().Cells()); err != nil {
		t.Fatalf("Prefetch with broken backing: %v", err)
	}
}

// TestKeyUnification: the memo, the store and the key derivation agree on
// one canonicalization — every spelling of the default configuration shares
// a single simulation and a single disk entry.
func TestKeyUnification(t *testing.T) {
	st := openStore(t)
	r := NewRunner(20_000, 5_000)
	r.Backing = st

	pcfg := sim.DefaultPipeline()
	pcfg.IL1Style = cache.PIPT // overwritten by Style in sim.Run; must not split keys
	tech := energy.DefaultTech
	spellings := []sim.Options{
		{Profile: workload.Mesa(), Scheme: core.Base, Style: cache.VIPT},
		{Profile: workload.Mesa(), Scheme: core.Base, Style: cache.VIPT,
			ITLB: sim.DefaultITLB(), PageBytes: 4096, Pipeline: &pcfg, Tech: &tech,
			Instructions: 20_000, Warmup: 5_000},
	}
	for _, o := range spellings {
		r.Result(context.Background(), o)
	}
	if r.Runs() != 1 {
		t.Errorf("default spellings ran %d simulations, want 1", r.Runs())
	}
	if s := st.Stats(); s.Puts != 1 {
		t.Errorf("default spellings wrote %d disk entries, want 1", s.Puts)
	}
}

// TestJobResolvesOnce: a resolved Job carries the key Key reports, and its
// memo probe and result are the option-taking calls' without hashing the
// configuration again — a memo-hit probe by Job allocates nothing, where
// hashing allocates kilobytes.
func TestJobResolvesOnce(t *testing.T) {
	ctx := context.Background()
	r := NewRunner(5_000, 1_000)
	opt := sim.Options{Profile: workload.Mesa(), Scheme: core.IA, Style: cache.VIPT}
	j := r.Job(opt)
	if k := r.Key(opt); j.Key != k {
		t.Fatalf("Job key %s, Key %s", j.Key, k)
	}
	if _, ok := r.CachedJob(j); ok {
		t.Fatal("CachedJob hit before any run")
	}
	res, err := r.JobResult(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := r.Result(ctx, opt); err != nil || !reflect.DeepEqual(again, res) || r.Runs() != 1 {
		t.Fatalf("Result after JobResult: err %v, runs %d; want the memoized result", err, r.Runs())
	}
	if got, ok := r.CachedJob(j); !ok || !reflect.DeepEqual(got, res) {
		t.Fatalf("CachedJob after the run: ok %v, want the memoized result", ok)
	}
	if a := testing.AllocsPerRun(20, func() { r.CachedJob(j) }); a != 0 {
		t.Errorf("a memo-hit probe by Job allocates %.0f times, want 0 (no re-hash)", a)
	}
	if a := testing.AllocsPerRun(20, func() { r.Cached(opt) }); a == 0 {
		t.Error("probing by options allocates nothing, so the check above cannot see a re-hash")
	}
}

// TestRunnerBatch: the memo-aware batch coalesces duplicates, serves the
// backing store, and aligns errors with inputs.
func TestRunnerBatch(t *testing.T) {
	st := openStore(t)
	r := NewRunner(20_000, 5_000)
	r.Backing = st

	good := sim.Options{Profile: workload.Mesa(), Scheme: core.Base, Style: cache.VIPT}
	bad := good
	bad.Scheme = core.IA
	bad.PageBytes = 3000 // not a power of two: fails validation, not the pool

	jobs := []sim.Options{good, good, bad}
	results, errs := r.Batch(context.Background(), jobs)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("good jobs failed: %v %v", errs[0], errs[1])
	}
	if errs[2] == nil {
		t.Fatal("invalid job did not error")
	}
	if results[0].Cycles != results[1].Cycles {
		t.Error("duplicate jobs returned different results")
	}
	if r.Runs() != 1 {
		t.Errorf("batch ran %d simulations, want 1 (duplicates coalesce)", r.Runs())
	}

	// A second batch in a fresh runner is served entirely from disk.
	r2 := NewRunner(20_000, 5_000)
	r2.Backing = st
	_, errs2 := r2.Batch(context.Background(), []sim.Options{good})
	if errs2[0] != nil {
		t.Fatal(errs2[0])
	}
	if r2.Runs() != 0 {
		t.Errorf("warm batch ran %d simulations, want 0", r2.Runs())
	}
}

// TestResultCanceled: waiting on someone else's in-flight simulation
// respects the caller's context.
func TestResultCanceled(t *testing.T) {
	r := NewRunner(200_000, 50_000)
	opt := sim.Options{Profile: workload.Mesa(), Scheme: core.Base, Style: cache.VIPT}
	started := make(chan struct{})
	go func() {
		close(started)
		r.Get(opt) // owner; runs to completion
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := r.Result(ctx, opt)
	if err == nil {
		// The owner may already have finished on a fast machine; only a
		// memo hit justifies nil here.
		if r.Stats().MemoHits == 0 {
			t.Error("canceled wait returned nil error without a memo hit")
		}
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
}
