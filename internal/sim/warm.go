package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"itlbcfr/internal/core"
	"itlbcfr/internal/pipeline"
	"itlbcfr/internal/tlb"
	"itlbcfr/internal/vm"
)

// warmState is one pooled post-warm-up snapshot: the machine (clocks,
// caches, dTLB, predictor, source position), the CFR engine, the iTLB and
// the address space — everything RunWith needs to restart a fresh build at
// the measured window. Every component snapshot is copy-on-restore, so one
// warmState safely seeds any number of concurrent simulations. The energy
// meter is deliberately absent: it is zero at the warm-up boundary. The
// engine's core.State likewise omits its statistics, which are zero on both
// sides of a fork: runWarm resets them before the checkpoint, and the fork
// target is a fresh build.
type warmState struct {
	machine *pipeline.MachineState
	engine  core.State
	itlb    *tlb.State
	space   *vm.State
}

// keyOf renders opt's warm identity: the JSON encoding of opt.Canonical()
// with two deliberate exclusions. Instructions is zeroed because the
// measured length only matters after the warm-up boundary; Tech is zeroed
// because the energy technology scales reported joules without touching a
// single architectural decision (and the meter is reset at the boundary
// anyway). Every other field — and any field added to Options later — is
// part of the key: scheme, style, iTLB, page size and pipeline all shape
// cache/TLB/CFR contents during warm-up, so two runs differing in any of
// them must not share state.
func keyOf(opt Options) string {
	c := opt.Canonical()
	c.Instructions = 0
	c.Tech = nil
	buf, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("sim: warm key not marshalable: %v", err))
	}
	return string(buf)
}

// WarmStats counts a pool's activity.
type WarmStats struct {
	// Warmups is how many full warm-up phases executed (one per distinct
	// warm key, plus any fallbacks for unsnapshotable sources).
	Warmups uint64 `json:"warmups"`
	// Hits is how many simulations forked a pooled state instead of
	// warming up.
	Hits uint64 `json:"hits"`
	// Entries is how many distinct warm states are resident.
	Entries int `json:"entries"`
}

// warmEntry is one pool slot. ready is closed once state is valid; a nil
// state after ready means the owner's source could not be snapshotted and
// waiters must warm up on their own.
type warmEntry struct {
	ready chan struct{}
	state *warmState
}

// WarmPool deduplicates warm-up work across simulations. The first RunWith
// for a given warm key executes the warm-up and publishes a deep snapshot
// of the post-warm-up state; every later RunWith with the same key — no
// matter how its measured length or energy technology differ — restores
// that snapshot instead, producing byte-identical results. Claims are
// single-flight: concurrent runs sharing a key block until the one owner
// publishes, so a parallel sweep never executes the same warm-up twice.
//
// The zero value is not usable; construct with NewWarmPool. All methods are
// safe for concurrent use.
type WarmPool struct {
	mu      sync.Mutex
	entries map[string]*warmEntry
	warmups uint64
	hits    uint64
}

// NewWarmPool returns an empty pool.
func NewWarmPool() *WarmPool {
	return &WarmPool{entries: make(map[string]*warmEntry)}
}

// claim returns the pool slot for key, creating it when absent. owned
// reports that the caller created the slot: it must publish a state (or
// leave it nil) and close ready, exactly once.
func (p *WarmPool) claim(key string) (e *warmEntry, owned bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.entries[key]; ok {
		return e, false
	}
	e = &warmEntry{ready: make(chan struct{})}
	p.entries[key] = e
	p.warmups++
	return e, true
}

// warmup advances b to its measured window: restoring a pooled state when
// one exists for opt's warm key, executing (and publishing) the warm-up
// otherwise.
func (p *WarmPool) warmup(opt Options, b *built) error {
	e, owned := p.claim(keyOf(opt))
	if owned {
		// Publish even on panic so waiters never hang; they will see a nil
		// state and warm up independently.
		defer close(e.ready)
		b.runWarm()
		e.state = b.checkpoint()
		return nil
	}
	<-e.ready
	if e.state == nil {
		// The owner's source was not snapshotable; warm up the slow way.
		p.mu.Lock()
		p.warmups++
		p.mu.Unlock()
		b.runWarm()
		return nil
	}
	if err := b.restore(e.state); err != nil {
		return fmt.Errorf("sim: warm fork: %w", err)
	}
	p.mu.Lock()
	p.hits++
	p.mu.Unlock()
	return nil
}

// Prewarm executes the warm-up of every distinct warm key in jobs over a
// bounded worker pool (zero or negative workers selects runtime.NumCPU()),
// publishing each post-warm-up snapshot into the pool before returning.
// Without it a sweep whose same-key jobs cluster together leaves most Batch
// workers blocked on the one single-flight warm-up owner; prewarming claims
// the distinct keys up front so they warm concurrently, and the batch proper
// then forks snapshots everywhere.
//
// Invalid options and build failures are skipped silently here — their slots
// publish a nil state, so affected runs warm up on their own and report the
// error through the ordinary path. A canceled ctx likewise releases every
// unstarted slot with a nil state; Prewarm never leaves a claimed slot
// unpublished. Results are byte-identical with or without a Prewarm pass.
func (p *WarmPool) Prewarm(ctx context.Context, jobs []Options, workers int) {
	type job struct {
		opt Options
		e   *warmEntry
	}
	var own []job
	seen := make(map[string]bool)
	for _, o := range jobs {
		if o.Validate() != nil {
			continue
		}
		key := keyOf(o)
		if seen[key] {
			continue
		}
		seen[key] = true
		e, owned := p.claim(key)
		if !owned {
			continue
		}
		own = append(own, job{opt: o, e: e})
	}
	runBatch(ctx, len(own), workers, func(i int) error {
		b, err := build(own[i].opt)
		if err != nil {
			return err
		}
		if b.closer != nil {
			defer b.closer.Close()
		}
		b.runWarm()
		own[i].e.state = b.checkpoint()
		return nil
	}, func(i int, err error) {
		// Publication doubles as the release for jobs the context drained
		// before they ran: a nil state sends waiters down the self-warm path.
		close(own[i].e.ready)
	})
}

// Stats returns a snapshot of the pool's counters.
func (p *WarmPool) Stats() WarmStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return WarmStats{Warmups: p.warmups, Hits: p.hits, Entries: len(p.entries)}
}
