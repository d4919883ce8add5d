package exp

import (
	"context"
	"sync"
	"time"

	"itlbcfr/internal/sim"
	"itlbcfr/internal/store"
)

// Backing is a durable second tier behind the Runner's in-memory memo,
// keyed by store.Key's canonical encoding. *store.Store implements it. A
// Backing must be safe for concurrent use. Put errors are counted by the
// Runner and otherwise dropped: a broken cache degrades to recompute, it
// never fails a simulation.
type Backing interface {
	Get(key string) (sim.Result, bool)
	Put(key string, res sim.Result) error
}

// Runner memoizes simulations so tables sharing configurations (most of
// them) do not re-simulate. It is safe for concurrent use: concurrent
// lookups with equal options coalesce onto a single in-flight simulation,
// and Prefetch warms the memo in parallel through sim.Batch. Configurations
// are keyed by store.Key — the same canonical encoding the disk store and
// the HTTP API use — so attaching a Backing makes results durable across
// processes for free. The zero value is ready to use and runs at the
// package defaults in internal/sim.
type Runner struct {
	// Instructions and Warmup apply to every simulation (zero = package
	// defaults in internal/sim).
	Instructions uint64
	Warmup       uint64

	// Workers bounds Prefetch's and Batch's parallelism (0 =
	// runtime.NumCPU(), 1 = serial).
	Workers int

	// Backing, when non-nil, is consulted on memo misses and populated
	// after every successful simulation.
	Backing Backing

	// Metrics, when set before first use, exports the Runner's counters
	// and per-stage timings (NewMetrics registers them in an obs.Registry).
	// Left nil, the Runner lazily builds an unregistered set so Stats()
	// always works.
	Metrics *Metrics

	metricsOnce sync.Once

	// warm is the shared warm-state pool: every simulation this Runner
	// executes warms up through it, so configurations differing only in
	// measured length or energy technology run one warm-up between them.
	warm     *sim.WarmPool
	warmOnce sync.Once

	mu    sync.Mutex
	cache map[string]*memoEntry
}

// pool returns the Runner's warm-state pool, building it on first use.
func (r *Runner) pool() *sim.WarmPool {
	r.warmOnce.Do(func() { r.warm = sim.NewWarmPool() })
	return r.warm
}

// met returns the Runner's metric set, building an unregistered one on
// first use when none was injected.
func (r *Runner) met() *Metrics {
	r.metricsOnce.Do(func() {
		if r.Metrics == nil {
			r.Metrics = NewMetrics(nil)
		}
	})
	return r.Metrics
}

// Stats is a snapshot of the Runner's counters (read from its Metrics).
type Stats struct {
	// Runs counts simulations executed by this process (backing hits are
	// not runs).
	Runs int `json:"runs"`
	// MemoHits counts lookups served by the in-memory memo, including
	// coalesced waits on in-flight simulations.
	MemoHits int `json:"memo_hits"`
	// Coalesced counts the subset of MemoHits that joined a simulation
	// still in flight rather than a settled entry.
	Coalesced int `json:"coalesced"`
	// BackingHits counts memo misses satisfied by the backing store.
	BackingHits int `json:"backing_hits"`
	// PutErrors counts failed backing writes (dropped, not fatal).
	PutErrors int `json:"put_errors"`
	// InFlight counts claimed configurations not yet settled.
	InFlight int `json:"in_flight"`
	// SimWall is cumulative wall-clock time spent executing simulations,
	// summed per simulation (a parallel batch accumulates each worker's
	// time, i.e. CPU-seconds of simulating, not pool wall time).
	SimWall time.Duration `json:"sim_wall_ns"`
	// Warm reports the shared warm-state pool: how many full warm-ups
	// ran, how many simulations forked a pooled snapshot instead, and how
	// many distinct warm states are resident.
	Warm sim.WarmStats `json:"warm"`
}

// memoEntry is one memo slot. done is closed once res and err are valid;
// waiters must not read them before it closes.
type memoEntry struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// settled reports whether the entry has a published result (non-blocking).
func (e *memoEntry) settled() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// NewRunner builds a Runner with the given simulation length.
func NewRunner(instructions, warmup uint64) *Runner {
	return &Runner{Instructions: instructions, Warmup: warmup}
}

// normalize applies the Runner's simulation length and canonicalizes every
// defaulted field to its explicit value (sim.Options.Canonical), so that
// options that differ only in how they spell the default share a memo slot
// — and a disk entry — instead of re-simulating.
func (r *Runner) normalize(opt sim.Options) sim.Options {
	if opt.Instructions == 0 {
		opt.Instructions = r.Instructions
	}
	if opt.Warmup == 0 {
		opt.Warmup = r.Warmup
	}
	return opt.Canonical()
}

// Job is one configuration as this Runner files it: the options with the
// Runner's defaults applied and canonicalized, and the store key they hash
// to. Hashing costs microseconds, so a caller that needs the key, a memo
// probe and the result resolves the options once and passes the Job.
type Job struct {
	Key string
	opt sim.Options
}

// Job resolves opt under this Runner.
func (r *Runner) Job(opt sim.Options) Job {
	opt = r.normalize(opt)
	return Job{Key: store.Key(opt), opt: opt}
}

// Key returns the canonical store key opt resolves to under this Runner —
// after the Runner's instruction/warm-up defaults are applied — i.e. the
// key its result is memoized and filed on disk under.
func (r *Runner) Key(opt sim.Options) string { return r.Job(opt).Key }

// Cached returns the settled memoized result for opt, without claiming,
// blocking or computing. In-flight entries report false.
func (r *Runner) Cached(opt sim.Options) (sim.Result, bool) { return r.CachedJob(r.Job(opt)) }

// CachedJob is Cached for a resolved Job.
func (r *Runner) CachedJob(j Job) (sim.Result, bool) {
	m := r.met()
	t0 := time.Now()
	r.mu.Lock()
	e, ok := r.cache[j.Key]
	r.mu.Unlock()
	m.memoLookup.ObserveSince(t0)
	if ok && e.settled() && e.err == nil {
		m.MemoHits.Inc()
		return e.res, true
	}
	return sim.Result{}, false
}

// claim returns the memo entry for key, reporting whether the caller now
// owns it (owner == true means the caller must settle the entry, from the
// backing store or by simulating).
func (r *Runner) claim(key string) (e *memoEntry, owner bool) {
	m := r.met()
	t0 := time.Now()
	r.mu.Lock()
	if r.cache == nil {
		r.cache = make(map[string]*memoEntry)
	}
	e, ok := r.cache[key]
	if !ok {
		e = &memoEntry{done: make(chan struct{})}
		r.cache[key] = e
	}
	r.mu.Unlock()
	m.memoLookup.ObserveSince(t0)
	if ok {
		m.MemoHits.Inc()
		if !e.settled() {
			m.Coalesced.Inc()
		}
		return e, false
	}
	m.InFlight.Inc()
	return e, true
}

// settle publishes a finished lookup: simulations that ran successfully
// count toward Runs, failures are removed from the memo so a later call can
// retry. ran distinguishes an executed simulation from a backing-store hit.
func (r *Runner) settle(key string, e *memoEntry, res sim.Result, err error, ran bool) {
	m := r.met()
	if err != nil {
		r.mu.Lock()
		delete(r.cache, key)
		r.mu.Unlock()
	} else if ran {
		m.Runs.Inc()
	}
	m.InFlight.Dec()
	e.res, e.err = res, err
	close(e.done)
}

// fromBacking consults the backing store for a claimed key.
func (r *Runner) fromBacking(key string) (sim.Result, bool) {
	if r.Backing == nil {
		return sim.Result{}, false
	}
	m := r.met()
	t0 := time.Now()
	res, ok := r.Backing.Get(key)
	m.backingRead.ObserveSince(t0)
	if ok {
		m.BackingHits.Inc()
	}
	return res, ok
}

// toBacking records a freshly computed result; errors are counted and
// dropped (an unwritable cache costs reuse, never correctness).
func (r *Runner) toBacking(key string, res sim.Result) {
	if r.Backing == nil {
		return
	}
	m := r.met()
	t0 := time.Now()
	err := r.Backing.Put(key, res)
	m.backingWrite.ObserveSince(t0)
	if err != nil {
		m.PutErrors.Inc()
	}
}

// observeRun feeds one executed simulation's wall cost into the sim_run
// stage histogram (whose sum is the Stats.SimWall total) and its fast-path
// coverage into the itlb_sim_* counters.
func (r *Runner) observeRun(res sim.Result) {
	m := r.met()
	m.simRun.Observe(res.Timing.TotalSeconds())
	m.Committed.Add(int64(res.Committed))
	m.BulkCommitted.Add(int64(res.Timing.BulkCommitted))
	m.WrongPath.Add(int64(res.WrongPathFetches))
	m.BulkWrongPath.Add(int64(res.Timing.BulkWrongPath))
}

// Result returns the memoized result for the options, consulting the
// backing store and simulating on first use. Concurrent calls with equal
// options share one simulation. A canceled ctx abandons the wait (an owner
// already simulating runs to completion and still settles the memo for
// others); the owner itself checks ctx only before starting.
func (r *Runner) Result(ctx context.Context, opt sim.Options) (sim.Result, error) {
	return r.JobResult(ctx, r.Job(opt))
}

// JobResult is Result for a resolved Job.
func (r *Runner) JobResult(ctx context.Context, j Job) (sim.Result, error) {
	opt, key := j.opt, j.Key
	for {
		e, owner := r.claim(key)
		if !owner {
			select {
			case <-e.done:
				if e.err == nil {
					return e.res, nil
				}
				// The owning call failed or was canceled before running;
				// its entry has been removed, so retry (likely becoming
				// the owner).
				continue
			case <-ctx.Done():
				return sim.Result{}, ctx.Err()
			}
		}
		if res, ok := r.fromBacking(key); ok {
			r.settle(key, e, res, nil, false)
			return res, nil
		}
		if err := ctx.Err(); err != nil {
			r.settle(key, e, sim.Result{}, err, false)
			return sim.Result{}, err
		}
		res, err := sim.RunWith(opt, r.pool())
		if err == nil {
			r.observeRun(res)
		}
		r.settle(key, e, res, err, err == nil)
		if err == nil {
			r.toBacking(key, res)
		}
		return res, err
	}
}

// Get is Result without a context, for the table generators (which only use
// known-good options): it panics if the simulation itself fails.
func (r *Runner) Get(opt sim.Options) sim.Result {
	res, err := r.Result(context.Background(), opt)
	if err != nil {
		panic(err)
	}
	return res
}

// Prefetch warms the memo for every option, serving what it can from the
// backing store and executing the rest in parallel through sim.Batch
// bounded by r.Workers. Options already cached or in flight are skipped
// (their owner finishes them). It returns the first simulation or context
// error; on cancellation the unfinished entries are released so later
// lookups re-run them.
func (r *Runner) Prefetch(ctx context.Context, opts []sim.Options) error {
	var (
		jobs    []sim.Options
		keys    []string
		entries []*memoEntry
	)
	seen := make(map[string]bool, len(opts))
	for _, o := range opts {
		o = r.normalize(o)
		k := store.Key(o)
		if seen[k] {
			continue
		}
		seen[k] = true
		e, owner := r.claim(k)
		if !owner {
			continue
		}
		if res, ok := r.fromBacking(k); ok {
			r.settle(k, e, res, nil, false)
			continue
		}
		jobs = append(jobs, o)
		keys = append(keys, k)
		entries = append(entries, e)
	}
	if len(jobs) == 0 {
		return ctx.Err()
	}
	var firstErr error
	sim.Batch(ctx, jobs, sim.BatchOptions{
		Workers: r.Workers,
		Pool:    r.pool(),
		OnComplete: func(i int, res sim.Result, err error) {
			if err == nil {
				r.observeRun(res)
			}
			r.settle(keys[i], entries[i], res, err, err == nil)
			if err == nil {
				r.toBacking(keys[i], res)
			} else if firstErr == nil {
				firstErr = err
			}
		},
	})
	return firstErr
}

// Batch runs every option through the memo and backing store, executing the
// misses over a bounded worker pool, and returns results and errors aligned
// with opts (errs[i] == nil means results[i] is valid). Unlike sim.Batch it
// coalesces duplicate configurations — within the batch and against
// anything already cached or in flight. On cancellation, jobs that never
// ran report ctx's error.
func (r *Runner) Batch(ctx context.Context, opts []sim.Options) ([]sim.Result, []error) {
	results := make([]sim.Result, len(opts))
	errs := make([]error, len(opts))
	entries := make([]*memoEntry, len(opts))

	var (
		jobs       []sim.Options
		jobKeys    []string
		jobEntries []*memoEntry
	)
	for i, o := range opts {
		o = r.normalize(o)
		k := store.Key(o)
		e, owner := r.claim(k)
		entries[i] = e
		if !owner {
			continue
		}
		if res, ok := r.fromBacking(k); ok {
			r.settle(k, e, res, nil, false)
			continue
		}
		jobs = append(jobs, o)
		jobKeys = append(jobKeys, k)
		jobEntries = append(jobEntries, e)
	}
	if len(jobs) > 0 {
		sim.Batch(ctx, jobs, sim.BatchOptions{
			Workers: r.Workers,
			Pool:    r.pool(),
			OnComplete: func(j int, res sim.Result, err error) {
				if err == nil {
					r.observeRun(res)
				}
				r.settle(jobKeys[j], jobEntries[j], res, err, err == nil)
				if err == nil {
					r.toBacking(jobKeys[j], res)
				}
			},
		})
	}
	for i, e := range entries {
		select {
		case <-e.done:
			results[i], errs[i] = e.res, e.err
		case <-ctx.Done():
			// Owned by a concurrent caller that has not settled yet.
			errs[i] = ctx.Err()
		}
	}
	return results, errs
}

// Runs reports how many distinct simulations have executed successfully.
func (r *Runner) Runs() int { return int(r.met().Runs.Value()) }

// Stats returns a snapshot of the Runner's counters.
func (r *Runner) Stats() Stats {
	m := r.met()
	return Stats{
		Warm:        r.pool().Stats(),
		Runs:        int(m.Runs.Value()),
		MemoHits:    int(m.MemoHits.Value()),
		Coalesced:   int(m.Coalesced.Value()),
		BackingHits: int(m.BackingHits.Value()),
		PutErrors:   int(m.PutErrors.Value()),
		InFlight:    int(m.InFlight.Value()),
		SimWall:     time.Duration(m.simRun.Sum() * float64(time.Second)),
	}
}
