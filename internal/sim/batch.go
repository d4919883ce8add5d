package sim

import (
	"context"
	"runtime"
	"sync"
)

// BatchOptions configures Batch's worker pool and progress reporting.
type BatchOptions struct {
	// Workers bounds how many simulations run concurrently. Zero or
	// negative selects runtime.NumCPU(); 1 runs the batch serially.
	Workers int

	// OnComplete, when non-nil, is called exactly once per job as it
	// finishes, with the job's index in the input slice, its result, and
	// its error (ctx's error for jobs that never ran because the context
	// was done). Calls are serialized, so OnComplete need not be
	// goroutine-safe, but a slow callback stalls the pool.
	OnComplete func(index int, res Result, err error)

	// Pool, when non-nil, shares warm-up work across the batch: every
	// distinct warm key is warmed up front over the same worker pool (see
	// WarmPool.Prewarm), so workers are never serialized behind one
	// single-flight warm-up owner when same-key jobs cluster together, and
	// every job then forks its key's snapshot. Results are byte-identical
	// with or without it.
	Pool *WarmPool
}

// Batch runs every job over a bounded worker pool and returns results and
// errors aligned with jobs (errs[i] == nil means results[i] is valid). A
// failing job does not affect the others. When ctx is canceled mid-batch no
// new simulations start: in-flight ones finish, every job that never ran is
// marked with ctx's error, and Batch returns promptly with the partial
// results.
func Batch(ctx context.Context, jobs []Options, opts BatchOptions) ([]Result, []error) {
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	if opts.Pool != nil {
		opts.Pool.Prewarm(ctx, jobs, opts.Workers)
	}
	runBatch(ctx, len(jobs), opts.Workers, func(i int) error {
		var err error
		results[i], err = RunWith(jobs[i], opts.Pool)
		return err
	}, func(i int, err error) {
		errs[i] = err
		if opts.OnComplete != nil {
			opts.OnComplete(i, results[i], err)
		}
	})
	return results, errs
}

// runBatch is Batch's engine, split out so the pool mechanics are testable
// without running simulations: fn(i) executes job i on one of `workers`
// goroutines, and done(i, err) is invoked exactly once per job, serialized
// across workers. Once ctx is done the remaining indices drain through the
// pool without calling fn, so done still sees every job.
func runBatch(ctx context.Context, n, workers int, fn func(int) error, done func(int, error)) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	var (
		idx = make(chan int)
		mu  sync.Mutex
		wg  sync.WaitGroup
	)
	report := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		done(i, err)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := ctx.Err(); err != nil {
					report(i, err)
					continue
				}
				report(i, fn(i))
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
