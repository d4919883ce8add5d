package sim

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/energy"
	"itlbcfr/internal/tlb"
	"itlbcfr/internal/workload"
)

func warmTestOptions(t *testing.T, scheme core.Scheme) Options {
	t.Helper()
	p, err := workload.ByName("mesa")
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Profile:      p,
		Scheme:       scheme,
		Instructions: 20_000,
		Warmup:       5_000,
	}
}

// stripWall zeroes the host-time fields, the only legitimately
// nondeterministic part of a Result.
func stripWall(r Result) Result {
	r.WallSeconds = 0
	r.Timing = Timing{}
	return r
}

// TestWarmForkByteIdentical pins the warm-state pool's core contract: a
// simulation that forks a pooled post-warm-up snapshot returns exactly the
// result of one that executes its own warm-up.
func TestWarmForkByteIdentical(t *testing.T) {
	for _, scheme := range []core.Scheme{core.Base, core.IA} {
		t.Run(scheme.String(), func(t *testing.T) {
			opt := warmTestOptions(t, scheme)
			plain, err := Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			pool := NewWarmPool()
			first, err := RunWith(opt, pool) // executes + publishes the warm-up
			if err != nil {
				t.Fatal(err)
			}
			forked, err := RunWith(opt, pool) // forks the pooled snapshot
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stripWall(plain), stripWall(first)) {
				t.Errorf("pooled owner diverges from plain Run:\nplain: %+v\nowner: %+v",
					stripWall(plain), stripWall(first))
			}
			if !reflect.DeepEqual(stripWall(plain), stripWall(forked)) {
				t.Errorf("forked run diverges from plain Run:\nplain: %+v\nfork:  %+v",
					stripWall(plain), stripWall(forked))
			}
			st := pool.Stats()
			if st.Warmups != 1 || st.Hits != 1 || st.Entries != 1 {
				t.Errorf("pool stats = %+v, want 1 warm-up, 1 hit, 1 entry", st)
			}
		})
	}
}

// TestWarmKeySharing checks which option changes share a warm-up: the
// measured length and the energy technology point do (neither can affect
// the first Warmup instructions), anything architectural does not.
func TestWarmKeySharing(t *testing.T) {
	base := warmTestOptions(t, core.IA)

	longer := base
	longer.Instructions = 30_000

	shrunk := base
	shrunk.Tech = &energy.Tech{FeatureNm: 70}

	otherScheme := base
	otherScheme.Scheme = core.HoA

	pool := NewWarmPool()
	for _, o := range []Options{base, longer, shrunk, otherScheme} {
		if _, err := RunWith(o, pool); err != nil {
			t.Fatal(err)
		}
	}
	st := pool.Stats()
	// base warms; longer and shrunk fork it; otherScheme warms its own.
	if st.Warmups != 2 || st.Hits != 2 || st.Entries != 2 {
		t.Errorf("pool stats = %+v, want 2 warm-ups, 2 hits, 2 entries", st)
	}

	if keyOf(base) != keyOf(longer) {
		t.Error("Instructions must not be part of the warm key")
	}
	if keyOf(base) != keyOf(shrunk) {
		t.Error("Tech must not be part of the warm key")
	}
	if keyOf(base) == keyOf(otherScheme) {
		t.Error("Scheme must be part of the warm key")
	}
	def := base
	def.Warmup = DefaultWarmup
	zero := base
	zero.Warmup = 0
	if keyOf(def) != keyOf(zero) {
		t.Error("a spelled-out default warm-up must share the defaulted key")
	}
}

// TestWarmKeyCoversEveryOption makes "the warm key holds every option that
// shapes warm-up" structural. Every Options field must be listed here with a
// perturbation; perturbing it must move the warm key, except for the two
// deliberate exclusions, Instructions and Tech, which must not. A field
// added to Options without an entry fails the test until it is classified.
func TestWarmKeyCoversEveryOption(t *testing.T) {
	perturb := map[string]func(*Options){
		"Profile":      func(o *Options) { o.Profile.Seed++ },
		"Scheme":       func(o *Options) { o.Scheme = core.HoA },
		"Style":        func(o *Options) { o.Style = cache.PIPT },
		"ITLB":         func(o *Options) { o.ITLB = tlb.Mono(64, 64) },
		"Trace":        func(o *Options) { o.Trace = &TraceRef{Key: "t1-abc"} },
		"Instructions": func(o *Options) { o.Instructions++ },
		"Warmup":       func(o *Options) { o.Warmup++ },
		"PageBytes":    func(o *Options) { o.PageBytes = 8192 },
		"Pipeline": func(o *Options) {
			p := DefaultPipeline()
			p.FetchWidth = 8
			o.Pipeline = &p
		},
		"Tech": func(o *Options) { o.Tech = &energy.Tech{FeatureNm: 70} },
	}
	excluded := map[string]bool{"Instructions": true, "Tech": true}

	base := warmTestOptions(t, core.IA)
	want := keyOf(base)
	fields := reflect.VisibleFields(reflect.TypeOf(Options{}))
	for _, f := range fields {
		mutate, ok := perturb[f.Name]
		if !ok {
			t.Errorf("Options.%s has no perturbation: list it here as part of the warm key or as a deliberate exclusion", f.Name)
			continue
		}
		o := base
		mutate(&o)
		if reflect.DeepEqual(o, base) {
			t.Errorf("the perturbation listed for Options.%s does not change it", f.Name)
			continue
		}
		if moved := keyOf(o) != want; moved == excluded[f.Name] {
			if moved {
				t.Errorf("perturbing Options.%s moved the warm key; it is a deliberate exclusion", f.Name)
			} else {
				t.Errorf("perturbing Options.%s left the warm key unchanged; runs differing in it would share a warm-up", f.Name)
			}
		}
	}
	if len(perturb) != len(fields) {
		t.Errorf("%d perturbations listed for %d Options fields; drop the stale entries", len(perturb), len(fields))
	}
}

// TestWarmTechForkScalesEnergyOnly checks the documented reason Tech is
// outside the warm key: two runs differing only in technology point must
// agree on every architectural number and differ only in joules.
func TestWarmTechForkScalesEnergyOnly(t *testing.T) {
	base := warmTestOptions(t, core.IA)
	shrunk := base
	shrunk.Tech = &energy.Tech{FeatureNm: 70}

	pool := NewWarmPool()
	r100, err := RunWith(base, pool)
	if err != nil {
		t.Fatal(err)
	}
	r70, err := RunWith(shrunk, pool)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Stats().Hits != 1 {
		t.Fatalf("tech-only variant did not fork: %+v", pool.Stats())
	}
	if r70.EnergyMJ >= r100.EnergyMJ {
		t.Errorf("70nm energy %v mJ not below 100nm %v mJ", r70.EnergyMJ, r100.EnergyMJ)
	}
	a, b := stripWall(r100), stripWall(r70)
	a.EnergyMJ, b.EnergyMJ = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("tech-only variants diverge beyond energy:\n100nm: %+v\n70nm:  %+v", a, b)
	}
}

// TestBatchSharesPool checks single-flight claiming under concurrency: runs
// with one warm key started together on one pool execute one warm-up between
// them — the others block on its publication and fork it — and still match
// the unpooled results.
func TestBatchSharesPool(t *testing.T) {
	base := warmTestOptions(t, core.IA)
	jobs := make([]Options, 4)
	for i := range jobs {
		jobs[i] = base
		jobs[i].Instructions = uint64(10_000 + 2_000*i)
	}
	pool := NewWarmPool()
	pooled := make([]Result, len(jobs))
	errsP := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pooled[i], errsP[i] = RunWith(jobs[i], pool)
		}()
	}
	wg.Wait()
	plain, errs := Batch(context.Background(), jobs, BatchOptions{Workers: 4})
	for i := range jobs {
		if errsP[i] != nil || errs[i] != nil {
			t.Fatalf("job %d: %v / %v", i, errsP[i], errs[i])
		}
		if !reflect.DeepEqual(stripWall(pooled[i]), stripWall(plain[i])) {
			t.Errorf("job %d diverges with pool:\npooled: %+v\nplain:  %+v",
				i, stripWall(pooled[i]), stripWall(plain[i]))
		}
	}
	st := pool.Stats()
	if st.Warmups != 1 {
		t.Errorf("concurrent runs ran %d warm-ups for one warm key, want 1 (%+v)", st.Warmups, st)
	}
	if st.Hits != uint64(len(jobs))-1 {
		t.Errorf("concurrent runs forked %d times, want %d (%+v)", st.Hits, len(jobs)-1, st)
	}
}

// TestPrewarmWarmsEachKeyOnce checks the prewarm pass directly: given a job
// list spanning two warm keys (with same-key jobs clustered, the worst case
// for single-flight claiming), Prewarm executes exactly one warm-up per
// distinct key, and the batch that follows forks every run while matching
// the unpooled results byte for byte.
func TestPrewarmWarmsEachKeyOnce(t *testing.T) {
	jobs := []Options{
		warmTestOptions(t, core.IA),
		warmTestOptions(t, core.IA),
		warmTestOptions(t, core.HoA),
		warmTestOptions(t, core.HoA),
	}
	jobs[1].Instructions = 30_000 // same warm key as jobs[0]
	jobs[3].Instructions = 30_000 // same warm key as jobs[2]

	pool := NewWarmPool()
	pool.Prewarm(context.Background(), jobs, 2)
	if st := pool.Stats(); st.Warmups != 2 || st.Hits != 0 || st.Entries != 2 {
		t.Fatalf("after Prewarm: stats = %+v, want 2 warm-ups, 0 hits, 2 entries", st)
	}

	pooled, errsP := Batch(context.Background(), jobs,
		BatchOptions{Workers: 4, Pool: pool})
	plain, errs := Batch(context.Background(), jobs, BatchOptions{Workers: 4})
	for i := range jobs {
		if errsP[i] != nil || errs[i] != nil {
			t.Fatalf("job %d: %v / %v", i, errsP[i], errs[i])
		}
		if !reflect.DeepEqual(stripWall(pooled[i]), stripWall(plain[i])) {
			t.Errorf("job %d diverges after prewarm:\npooled: %+v\nplain:  %+v",
				i, stripWall(pooled[i]), stripWall(plain[i]))
		}
	}
	st := pool.Stats()
	if st.Warmups != 2 {
		t.Errorf("prewarmed batch ran %d warm-ups for two warm keys, want 2 (%+v)",
			st.Warmups, st)
	}
	if st.Hits != uint64(len(jobs)) {
		t.Errorf("prewarmed batch forked %d times, want every run (%d) (%+v)",
			st.Hits, len(jobs), st)
	}
}

// TestPrewarmSkipsInvalidAndDuplicates checks the edges Prewarm documents:
// invalid options are ignored (their runs fail through the ordinary path)
// and a second Prewarm over the same jobs is a no-op.
func TestPrewarmSkipsInvalidAndDuplicates(t *testing.T) {
	good := warmTestOptions(t, core.IA)
	jobs := []Options{good, {} /* invalid: no profile */, good}
	pool := NewWarmPool()
	pool.Prewarm(context.Background(), jobs, 2)
	pool.Prewarm(context.Background(), jobs, 2)
	if st := pool.Stats(); st.Warmups != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want exactly 1 warm-up and 1 entry", st)
	}
}

// TestPrewarmCanceledContext checks that a canceled prewarm never strands a
// claimed slot: the drained slots publish nil states, so later runs take the
// self-warm fallback and still produce the plain result.
func TestPrewarmCanceledContext(t *testing.T) {
	opt := warmTestOptions(t, core.IA)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pool := NewWarmPool()
	pool.Prewarm(ctx, []Options{opt}, 2) // must not hang or leave ready open
	got, err := RunWith(opt, pool)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripWall(plain), stripWall(got)) {
		t.Errorf("self-warm fallback diverges from plain Run:\nplain: %+v\ngot:   %+v",
			stripWall(plain), stripWall(got))
	}
	// One warm-up counted at claim time, one for the fallback.
	if st := pool.Stats(); st.Warmups != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 2 warm-ups (claim + fallback), 0 hits", st)
	}
}

// benchFamily is a warm-key-sharing family: one architectural
// configuration at six technology points, the shape of the exp tech
// sweep. With the pool the family costs one warm-up + six measured
// windows; without it, six of each.
func benchFamily(b *testing.B, pool *WarmPool) {
	p, err := workload.ByName("mesa")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, nm := range []float64{100, 90, 80, 70, 60, 50} {
			opt := Options{
				Profile: p, Scheme: core.IA,
				Instructions: 500_000, Warmup: 300_000,
				Tech: &energy.Tech{FeatureNm: nm},
			}
			if _, err := RunWith(opt, pool); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFamilyNoPool(b *testing.B)   { benchFamily(b, nil) }
func BenchmarkFamilyWarmFork(b *testing.B) { benchFamily(b, NewWarmPool()) }
