package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"unsafe"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/compiler"
	"itlbcfr/internal/core"
	"itlbcfr/internal/pipeline"
	"itlbcfr/internal/program"
	"itlbcfr/internal/tlb"
	"itlbcfr/internal/vm"
	"itlbcfr/internal/workload"
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

// bytes is the state's approximate resident size: the component snapshots'
// arrays and maps, which dominate (the source position is a few words plus
// the executor's call stack and is not counted).
func (ws *warmState) bytes() int {
	return ws.machine.Bytes() + int(unsafe.Sizeof(ws.engine)) + ws.itlb.Bytes() + ws.space.Bytes()
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
	// Images is how many compiled workload images are resident in the
	// pool's image table.
	Images int `json:"images"`
	// Bytes is the approximate resident size of the published warm-state
	// snapshots (see warmState.bytes).
	Bytes int64 `json:"bytes"`
}

// warmEntry is one pool slot. ready is closed once state is valid; a nil
// state after ready means the owner's source could not be snapshotted and
// waiters must warm up on their own.
type warmEntry struct {
	ready chan struct{}
	state *warmState
}

// imageKey identifies one compiled workload image: exactly what build feeds
// workload.Generate and compiler.Compile. It is a projection of the warm key
// (keyOf), so the image table never holds more images than the pool holds
// warm states, plus whatever StaticStats asked for.
type imageKey struct {
	profile   workload.Profile
	pageBytes uint64
	stubs     bool
}

// imageKeyOf projects canonical, validated, profile-driven options onto
// their image identity.
func imageKeyOf(opt Options) imageKey {
	return imageKey{profile: opt.Profile, pageBytes: opt.PageBytes, stubs: opt.Scheme.NeedsStubs()}
}

// compileImage generates and compiles the image for k, bypassing any table.
func compileImage(k imageKey) (*program.Image, compiler.StaticStats, error) {
	geom, err := addr.NewGeometry(k.pageBytes)
	if err != nil {
		return nil, compiler.StaticStats{}, err
	}
	img, err := workload.Generate(k.profile)
	if err != nil {
		return nil, compiler.StaticStats{}, err
	}
	img.Geom = geom
	return compiler.Compile(img, compiler.Options{InsertBoundaryStubs: k.stubs})
}

// imageEntry is one image-table slot. ready is closed once img, stats and
// err are set; they are never written again.
type imageEntry struct {
	ready chan struct{}
	img   *program.Image
	stats compiler.StaticStats
	err   error
}

// WarmPool deduplicates warm-up work across simulations. The first RunWith
// for a given warm key executes the warm-up and publishes a deep snapshot
// of the post-warm-up state; every later RunWith with the same key — no
// matter how its measured length or energy technology differ — restores
// that snapshot instead, producing byte-identical results. Claims are
// single-flight: concurrent runs sharing a key block until the one owner
// publishes, so a parallel sweep never executes the same warm-up twice.
//
// The pool also keeps an image table: the compiled, read-only code image of
// every (profile, page size, stubs) its builds have used, compiled once
// (single-flight, like the warm states) and shared by every later build —
// cold, forked or prewarmed. Images are never written after compilation, so
// sharing one across concurrent simulations is safe. Trace-replay images
// are built per run and bypass the table.
//
// The zero value is not usable; construct with NewWarmPool. All methods are
// safe for concurrent use.
type WarmPool struct {
	mu      sync.Mutex
	entries map[string]*warmEntry
	images  map[imageKey]*imageEntry
	warmups uint64
	hits    uint64
	bytes   int64
}

// NewWarmPool returns an empty pool.
func NewWarmPool() *WarmPool {
	return &WarmPool{entries: make(map[string]*warmEntry), images: make(map[imageKey]*imageEntry)}
}

// image returns the compiled image for k from the image table, compiling it
// on first use; concurrent first uses wait for one compilation. A nil pool
// compiles fresh, keeping Run the naive reference path. A failed (or
// panicking) compilation is reported to every waiter and then dropped from
// the table, so a later build retries it.
func (p *WarmPool) image(k imageKey) (*program.Image, compiler.StaticStats, error) {
	if p == nil {
		return compileImage(k)
	}
	p.mu.Lock()
	e, ok := p.images[k]
	if !ok {
		e = &imageEntry{ready: make(chan struct{})}
		p.images[k] = e
	}
	p.mu.Unlock()
	if ok {
		<-e.ready
		return e.img, e.stats, e.err
	}
	defer func() {
		if e.img == nil && e.err == nil {
			e.err = fmt.Errorf("sim: compiling the %s image panicked", k.profile.Name)
		}
		if e.err != nil {
			p.mu.Lock()
			delete(p.images, k)
			p.mu.Unlock()
		}
		close(e.ready)
	}()
	e.img, e.stats, e.err = compileImage(k)
	return e.img, e.stats, e.err
}

// StaticStats returns the compile-time branch statistics (Table 4's static
// half) of the image opt's simulation executes, through the image table. A
// nil pool compiles fresh. Trace workloads have no compiled profile image.
func (p *WarmPool) StaticStats(opt Options) (compiler.StaticStats, error) {
	if err := opt.Validate(); err != nil {
		return compiler.StaticStats{}, err
	}
	if opt.Trace != nil {
		return compiler.StaticStats{}, fmt.Errorf("sim: trace %s has no static statistics", opt.Trace.Key)
	}
	_, st, err := p.image(imageKeyOf(opt.Canonical()))
	return st, err
}

// publish makes st (nil when the source could not be snapshotted) the
// state of e. The caller closes e.ready afterwards.
func (p *WarmPool) publish(e *warmEntry, st *warmState) {
	e.state = st
	if st != nil {
		p.mu.Lock()
		p.bytes += int64(st.bytes())
		p.mu.Unlock()
	}
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
		p.publish(e, b.checkpoint())
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
		b, err := build(own[i].opt, p)
		if err != nil {
			return err
		}
		if b.closer != nil {
			defer b.closer.Close()
		}
		b.runWarm()
		p.publish(own[i].e, b.checkpoint())
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
	return WarmStats{Warmups: p.warmups, Hits: p.hits, Entries: len(p.entries),
		Images: len(p.images), Bytes: p.bytes}
}
