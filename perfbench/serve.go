package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/client"
	"itlbcfr/internal/core"
	"itlbcfr/internal/exp"
	"itlbcfr/internal/server"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/store"
	"itlbcfr/internal/trace"
	"itlbcfr/internal/workload"
)

// The request kinds of the serve mix.
const (
	kSimHit = iota
	kSimBacking
	kSimMiss
	kBatch
	kTable
	kTraceSim
	numKinds
)

var kindNames = [numKinds]string{"sim_hit", "sim_backing", "sim_miss", "batch", "table", "trace_sim"}

// kindWeights is cmd/itlbload's default mix, sim=8,batch=1,table=1,trace=1,
// with its single-simulation share split into six memo hits, one backing
// hit and one miss: each first-touch kind gets the unit weight itlbload
// gives every kind other than single simulations.
var kindWeights = [numKinds]int{6, 1, 1, 1, 1, 1}

// The request pool is itlbload's default one: every benchmark under Base
// and IA, VI-PT, the server's default iTLB and page size. The batch sweep
// is that pool, trace simulations take its schemes, new configurations
// and pre-populated ones take its shapes at lengths no other request uses,
// and the tables are itlbload's default table ids.
var (
	poolSchemes = []string{"Base", "IA"}
	poolStyle   = "VI-PT"
	batchSweep  = exp.AxesSpec{Benches: []string{"all"}, Schemes: poolSchemes, Styles: []string{poolStyle}}
	tableIDs    = []string{"2", "4", "5"}
)

// serveSlices is how many slices an untraced run is measured in; ops_per_s,
// minst_per_s and tail_ms are medians over them.
const serveSlices = 10

// traceName is the alias set-up uploads the served trace under.
const traceName = "perfbench-trace"

// simCfg is one configuration in the words of the HTTP API.
type simCfg struct {
	bench, scheme, style string
	n                    uint64 // 0 = the server's length
}

func (c simCfg) request() server.SimRequest {
	return server.SimRequest{Bench: c.bench, Scheme: c.scheme, Style: c.style, Instructions: c.n}
}

// options resolves c the way the server does; traceKey stands in for the
// uploaded trace's alias.
func (c simCfg) options(traceKey string) (sim.Options, error) {
	var opt sim.Options
	var err error
	if c.bench == traceName {
		opt.Trace = &sim.TraceRef{Key: traceKey}
	} else if opt.Profile, err = workload.ByName(c.bench); err != nil {
		return opt, err
	}
	if opt.Scheme, err = core.ParseScheme(c.scheme); err != nil {
		return opt, err
	}
	if opt.Style, err = cache.ParseStyle(c.style); err != nil {
		return opt, err
	}
	opt.Instructions = c.n
	return opt, nil
}

// poolShapes is the request pool's configurations at the server's length.
func poolShapes() []simCfg {
	var out []simCfg
	for _, b := range workload.Names() {
		for _, sch := range poolSchemes {
			out = append(out, simCfg{bench: b, scheme: sch, style: poolStyle})
		}
	}
	return out
}

// timedBacking is the store seen through exp.Backing with every call
// counted and timed while on is set.
type timedBacking struct {
	st *store.Store
	tr *tracer
	on atomic.Bool

	mu             sync.Mutex
	gets, hits     int
	getLat, putLat []float64
}

func (t *timedBacking) Get(key string) (sim.Result, bool) {
	t0 := time.Now()
	res, ok := t.st.Get(key)
	if t.on.Load() {
		t1 := time.Now()
		t.tr.record("store.get", t0, t1)
		t.mu.Lock()
		t.gets++
		if ok {
			t.hits++
		}
		t.getLat = append(t.getLat, t1.Sub(t0).Seconds())
		t.mu.Unlock()
	}
	return res, ok
}

func (t *timedBacking) Put(key string, res sim.Result) error {
	t0 := time.Now()
	err := t.st.Put(key, res)
	if t.on.Load() {
		t1 := time.Now()
		t.tr.record("store.put", t0, t1)
		t.mu.Lock()
		t.putLat = append(t.putLat, t1.Sub(t0).Seconds())
		t.mu.Unlock()
	}
	return err
}

// serveEnv is one in-process itlbd with its stores and a client.
type serveEnv struct {
	dir      string
	st       *store.Store
	ts       *trace.Store
	backing  *timedBacking // nil when untraced
	cl       *client.Client
	httpc    *http.Client
	traceKey string
	stop     context.CancelFunc
	done     chan error

	// shapes is the request pool in a seeded order; backingCfg derives
	// the configurations filed into the store from it.
	shapes []simCfg
	n      uint64 // the server's length
	pre    func() *exp.Runner
	filed  int // backing configurations in the store
}

// backingCfg is the i-th configuration filed into the store for a
// sim_backing request: a pool shape at a length below the server's, one
// instruction shorter each time the shapes come round again, so no other
// request kind touches it first.
func (e *serveEnv) backingCfg(i int) simCfg {
	c := e.shapes[i%len(e.shapes)]
	c.n = e.n - 1 - uint64(i/len(e.shapes))
	return c
}

// fill files backing configurations through a throwaway Runner until upTo
// of them are in the store.
func (e *serveEnv) fill(ctx context.Context, upTo int) error {
	if upTo <= e.filed {
		return nil
	}
	if c := e.backingCfg(upTo - 1); c.n < e.n/2 {
		return fmt.Errorf("%d backing configurations would shorten runs to %d instructions", upTo, c.n)
	}
	opts := make([]sim.Options, 0, upTo-e.filed)
	for i := e.filed; i < upTo; i++ {
		opt, err := e.backingCfg(i).options("")
		if err != nil {
			return err
		}
		opts = append(opts, opt)
	}
	if err := e.pre().Prefetch(ctx, opts); err != nil {
		return fmt.Errorf("pre-populating the store: %w", err)
	}
	e.filed = upTo
	return nil
}

// close stops the server, waits for it and removes its directory.
func (e *serveEnv) close() error {
	e.stop()
	err := <-e.done
	e.httpc.CloseIdleConnections()
	if rmErr := os.RemoveAll(e.dir); err == nil {
		err = rmErr
	}
	return err
}

// newServeEnv sets up a server: a fresh store pre-populated with enough
// backing configurations for the first slice, the measured server over an
// empty memo, and one uploaded trace.
func newServeEnv(ctx context.Context, b *bench, traceData []byte) (*serveEnv, error) {
	dir, err := os.MkdirTemp(b.cfg.work, "serve-")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{dir: dir}
	fail := func(err error) (*serveEnv, error) {
		if e.stop != nil {
			e.stop()
			<-e.done
		}
		os.RemoveAll(dir)
		return nil, err
	}
	if e.st, err = store.Open(filepath.Join(dir, "results")); err != nil {
		return fail(err)
	}
	if e.ts, err = trace.OpenStore(filepath.Join(dir, "traces")); err != nil {
		return fail(err)
	}

	e.shapes, e.n = poolShapes(), b.cfg.serveN
	rng := rand.New(rand.NewPCG(b.cfg.seed, 0x5e7))
	rng.Shuffle(len(e.shapes), func(i, j int) { e.shapes[i], e.shapes[j] = e.shapes[j], e.shapes[i] })
	e.pre = func() *exp.Runner {
		return &exp.Runner{Instructions: b.cfg.serveN, Warmup: b.cfg.serveWarm, Workers: b.cfg.workers, Backing: e.st}
	}
	first := b.cfg.serveBackingRate * float64(b.cfg.workers) * b.cfg.dur.Seconds() / float64(b.slices(serveSlices))
	if err := e.fill(ctx, int(math.Ceil(first))); err != nil {
		return fail(err)
	}

	r := &exp.Runner{Instructions: b.cfg.serveN, Warmup: b.cfg.serveWarm, Workers: b.cfg.workers, Backing: e.st}
	if b.tr != nil {
		e.backing = &timedBacking{st: e.st, tr: b.tr}
		r.Backing = e.backing
	}
	srv := server.New(server.Config{Runner: r, Store: e.st, Traces: e.ts})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	sctx, stop := context.WithCancel(ctx)
	e.stop, e.done = stop, make(chan error, 1)
	go func() { e.done <- srv.Serve(sctx, l) }()

	e.httpc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * b.cfg.workers}}
	e.cl = client.New(l.Addr().String())
	e.cl.HTTPClient = e.httpc
	e.cl.Retries = -1
	info, err := e.cl.UploadTrace(ctx, bytes.NewReader(traceData), traceName)
	if err != nil {
		return fail(fmt.Errorf("uploading the trace: %w", err))
	}
	e.traceKey = info.Key
	return e, nil
}

// sample is one response kept for a direct re-simulation after the run.
type sample struct {
	opt sim.Options
	res sim.Result
}

// caller is one closed-loop client's tally for a slice.
type caller struct {
	ops, failed int
	lat         [numKinds][]float64
	missSims    simTotals // results the server simulated for this caller
	samples     []sample
}

// serveRun is the measured server's shared request state.
type serveRun struct {
	b    *bench
	env  *serveEnv
	keys *exp.Runner // computes the key each response must carry

	mu      sync.Mutex
	touched []simCfg
	next    int // next unserved backing configuration
	tables  map[string]string

	misses atomic.Uint64
}

func (s *serveRun) touch(c simCfg) {
	s.mu.Lock()
	s.touched = append(s.touched, c)
	s.mu.Unlock()
}

// pick draws the configuration for a sim kind; a hit with nothing touched
// yet becomes a miss. A backing request that finds every filed
// configuration served fails rather than change the mix.
func (s *serveRun) pick(kind int, rng *rand.Rand) (simCfg, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case kind == kSimHit && len(s.touched) > 0:
		return s.touched[rng.IntN(len(s.touched))], kind, nil
	case kind == kSimBacking:
		if s.next >= s.env.filed {
			return simCfg{}, kind, fmt.Errorf("all %d pre-populated configurations were served", s.env.filed)
		}
		s.next++
		return s.env.backingCfg(s.next - 1), kind, nil
	case kind == kTraceSim:
		return simCfg{bench: traceName, scheme: poolSchemes[rng.IntN(len(poolSchemes))], style: poolStyle}, kind, nil
	}
	// A length above the server's that no other request uses makes the
	// configuration new; its shape is one of the pool's, so new
	// configurations fork a bounded set of warm states, as a length sweep
	// does.
	c := s.env.shapes[rng.IntN(len(s.env.shapes))]
	c.n = s.b.cfg.serveN + s.misses.Add(1)
	return c, kSimMiss, nil
}

// timed runs one client call inside a client.request span and returns
// its latency in seconds; the reply's checks run outside the timed window.
func timed(tr *tracer, call func() error) (float64, error) {
	end, _ := tr.begin("client.request", 0, tr.op())
	t0 := time.Now()
	err := call()
	d := time.Since(t0).Seconds()
	end()
	return d, err
}

// do issues one request of the given kind, checks its reply and returns
// the kind it turned out to be and its latency.
func (s *serveRun) do(ctx context.Context, kind int, rng *rand.Rand, c *caller, tr *tracer) (int, float64, error) {
	cl := s.env.cl
	switch kind {
	case kBatch:
		var recs []server.BatchRecord
		d, err := timed(tr, func() (err error) {
			recs, err = cl.BatchCollect(ctx, server.BatchRequest{Sweep: &server.SweepRequest{AxesSpec: batchSweep}})
			return err
		})
		if err != nil {
			return kind, d, err
		}
		axes, err := batchSweep.Axes()
		if err != nil {
			return kind, d, err
		}
		want := axes.Enumerate()
		s.b.mark("serve.batch_records")
		if len(recs) != len(want) {
			return kind, d, fmt.Errorf("batch returned %d records for a %d-cell sweep", len(recs), len(want))
		}
		for _, rec := range recs {
			if rec.Error != "" || rec.Result == nil || rec.Index < 0 || rec.Index >= len(want) {
				return kind, d, fmt.Errorf("batch record %d: %q", rec.Index, rec.Error)
			}
			s.b.mark("serve.key")
			if k := s.keys.Key(want[rec.Index]); rec.Key != k {
				return kind, d, fmt.Errorf("batch record key %s, want %s", rec.Key, k)
			}
			if !rec.Cached {
				c.missSims.add(*rec.Result)
			}
		}
		return kind, d, nil
	case kTable:
		id := tableIDs[rng.IntN(len(tableIDs))]
		var text string
		d, err := timed(tr, func() (err error) {
			text, err = cl.TableText(ctx, id)
			return err
		})
		if err != nil {
			return kind, d, err
		}
		s.mu.Lock()
		first, seen := s.tables[id]
		if !seen {
			s.tables[id] = text
		}
		s.mu.Unlock()
		s.b.mark("serve.table_repeat")
		if seen && text != first {
			return kind, d, fmt.Errorf("table %s rendered differently on a repeat", id)
		}
		return kind, d, nil
	}
	cfg, kind, err := s.pick(kind, rng)
	if err != nil {
		return kind, 0, err
	}
	opt, err := cfg.options(s.env.traceKey)
	if err != nil {
		return kind, 0, err
	}
	var resp server.SimResponse
	d, err := timed(tr, func() (err error) {
		resp, err = cl.Sim(ctx, cfg.request())
		return err
	})
	if err != nil {
		return kind, d, err
	}
	s.b.mark("serve.key")
	if k := s.keys.Key(opt); resp.Key != k {
		return kind, d, fmt.Errorf("%s: key %s, want %s", kindNames[kind], resp.Key, k)
	}
	if kind == kSimMiss {
		c.missSims.add(resp.Result)
	}
	if kind != kSimHit {
		s.touch(cfg)
	}
	if len(c.samples) == 0 || (rng.IntN(200) == 0 && len(c.samples) < 4) {
		if opt.Instructions == 0 {
			opt.Instructions = s.b.cfg.serveN
		}
		opt.Warmup = s.b.cfg.serveWarm
		c.samples = append(c.samples, sample{opt: opt, res: resp.Result})
	}
	return kind, d, nil
}

// callers runs the closed loop: one caller per CPU, each sending its next
// request when the previous reply arrives, until the deadline.
func (s *serveRun) callers(ctx context.Context, slice uint64, until time.Time, tr *tracer) []*caller {
	out := make([]*caller, s.b.cfg.workers)
	var wg sync.WaitGroup
	for i := range out {
		c := &caller{}
		out[i] = c
		rng := rand.New(rand.NewPCG(s.b.cfg.seed, slice<<16|uint64(i)))
		kinds := newDeck(rng)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) && ctx.Err() == nil {
				kind, d, err := s.do(ctx, kinds.deal(), rng, c, tr)
				c.ops++
				if err != nil {
					c.failed++
					s.b.logf("%s request: %v", kindNames[kind], err)
					continue
				}
				c.lat[kind] = append(c.lat[kind], d)
			}
		}()
	}
	wg.Wait()
	return out
}

// deck deals request kinds in shuffled blocks that hold each kind exactly
// its weight, so every run's mix matches the weights instead of drifting
// with the draw.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand) *deck {
	d := &deck{rng: rng}
	for k, w := range kindWeights {
		for i := 0; i < w; i++ {
			d.cards = append(d.cards, k)
		}
	}
	return d
}

func (d *deck) deal() int {
	if d.next == 0 {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	k := d.cards[d.next]
	d.next = (d.next + 1) % len(d.cards)
	return k
}

// httpSums reads the server's cumulative handler and semaphore-wait
// seconds for the mix's endpoints from /metrics.
func httpSums(ctx context.Context, cl *client.Client) (handler, semWait float64, err error) {
	m, err := cl.Metrics(ctx)
	if err != nil {
		return 0, 0, err
	}
	for series, v := range m {
		if strings.HasPrefix(series, "itlb_http_request_seconds_sum") &&
			(strings.Contains(series, "/v1/sim") || strings.Contains(series, "/v1/batch") ||
				strings.Contains(series, "/v1/tables")) {
			handler += v
		}
	}
	return handler, m["itlb_http_sem_wait_seconds_sum"], nil
}

// runServe drives an in-process itlbd through internal/client: the server,
// client, the exp memo and the store carry the cost, simulation is a minor
// share.
func runServe(ctx context.Context, b *bench) error {
	traces, err := synthesize(b.cfg.seed, b.cfg.traceLen)
	if err != nil {
		return err
	}
	served := traces[tracesPerClass].data // between the iL1 and the iTLB reach

	var env *serveEnv
	var setup []float64
	for i := 0; i < b.cfg.serveSetupReps; i++ {
		if env != nil {
			if err := env.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if env, err = newServeEnv(ctx, b, served); err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer env.close()
	b.check("serve.prepopulated", env.st.Stats().Puts == uint64(env.filed),
		"pre-population put %d results for %d configurations", env.st.Stats().Puts, env.filed)
	filedAtSetup := env.filed

	s := &serveRun{b: b, env: env, keys: exp.NewRunner(b.cfg.serveN, b.cfg.serveWarm),
		tables: map[string]string{}}
	before, err := env.cl.Stats(ctx)
	if err != nil {
		return err
	}
	var (
		lat          []float64
		latKinds     []int
		sliceLat     [][]float64
		perKind      [numKinds][]float64
		tracedMiss   simTotals
		samples      []sample
		slice        uint64
		opsPerS      []float64
		minst        []float64
		handlerS     float64
		semWaitS     float64
		tracedOps    int
		tracedClient float64
		tracedStats  [2]server.StatsResponse
		tracedSeen   bool
		maxBacking   int
		backingSeen  int
	)
	b.measure(serveSlices, func(until time.Time, tr *tracer) (ops int, wall float64) {
		slice++
		if env.backing != nil {
			env.backing.on.Store(tr != nil)
		}
		h0, w0, err := httpSums(ctx, env.cl)
		if err != nil {
			b.logf("reading /metrics: %v", err)
		}
		st0, err := env.cl.Stats(ctx)
		if err != nil {
			b.logf("reading /v1/stats: %v", err)
		}
		t0 := time.Now()
		cs := s.callers(ctx, slice, until, tr)
		wall = time.Since(t0).Seconds()
		h1, w1, err := httpSums(ctx, env.cl)
		if err != nil {
			b.logf("reading /metrics: %v", err)
		}
		st1, err := env.cl.Stats(ctx)
		if err != nil {
			b.logf("reading /v1/stats: %v", err)
		}
		var sum float64
		latBefore := len(lat)
		var committed uint64
		for _, c := range cs {
			ops += c.ops
			b.attempted += c.ops
			b.failed += c.failed
			samples = append(samples, c.samples...)
			for k, ds := range c.lat {
				perKind[k] = append(perKind[k], ds...)
				for _, d := range ds {
					sum += d
					if tr == nil {
						lat = append(lat, d)
						latKinds = append(latKinds, k)
					}
				}
			}
			committed += c.missSims.committed
			if tr != nil {
				addTotals(&tracedMiss, c.missSims)
			}
		}
		if tr == nil {
			opsPerS = append(opsPerS, float64(ops)/wall)
			minst = append(minst, float64(committed)/1e6/wall)
			sliceLat = append(sliceLat, lat[latBefore:])
		} else {
			handlerS += h1 - h0
			semWaitS += w1 - w0
			tracedOps += ops
			tracedClient += sum
			if !tracedSeen {
				tracedStats[0], tracedSeen = st0, true
			}
			tracedStats[1] = st1
		}
		// Outside the timed window, top the store up to what set-up filed
		// or to twice the most sim_backing requests a slice has made,
		// whichever is more, so the next slice cannot run out unless the
		// host more than doubles its speed.
		maxBacking = max(maxBacking, len(perKind[kSimBacking])-backingSeen)
		backingSeen = len(perKind[kSimBacking])
		if slice == uint64(b.slices(serveSlices)) {
			return ops, wall // the last slice
		}
		if err := env.fill(ctx, s.next+max(filedAtSetup, 2*maxBacking)); err != nil {
			b.failed++
			b.logf("topping up the store: %v", err)
		}
		return ops, wall
	})
	b.note("ops_per_s by slice: %.4g", opsPerS)
	b.note("minst_per_s by slice: %.4g", minst)
	b.note("backing pool: %d configurations filed at set-up, %d between slices; at most %d sim_backing requests in one slice",
		filedAtSetup, env.filed-filedAtSetup, maxBacking)
	after, err := env.cl.Stats(ctx)
	if err != nil {
		return err
	}
	backingHits := after.Runner.BackingHits - before.Runner.BackingHits
	b.check("serve.backing_hits", backingHits == len(perKind[kSimBacking]),
		"%d backing hits for %d sim_backing requests", backingHits, len(perKind[kSimBacking]))
	if err := s.verify(ctx, samples); err != nil {
		return err
	}
	for k, l := range perKind {
		b.note("%s: %d requests", kindNames[k], len(l))
	}

	t := b.groupedLatency("slice", sliceLat)
	var beyond [numKinds]int
	for i, d := range lat {
		if d >= t {
			beyond[latKinds[i]]++
		}
	}
	b.note("requests at or beyond tail_ms by kind %v: %v", kindNames, beyond)
	b.e2e("setup_s", median(setup))
	b.e2e("ops_per_s", median(opsPerS))
	b.e2e("minst_per_s", median(minst))
	if b.tr == nil {
		return nil
	}
	for k := range perKind {
		b.layer("server."+kindNames[k]+".p50_ms", median(perKind[k])*1e3)
	}
	b.layer("server.handler_s", ratio(handlerS, float64(tracedOps)))
	b.layer("server.sem_wait_s", ratio(semWaitS, float64(tracedOps)))
	b.layer("client.overhead_s", ratio(tracedClient-handlerS, float64(tracedOps)))
	b.layer("sim.setup_s", tracedMiss.setupS)
	b.layer("sim.warmup_s", tracedMiss.warmupS)
	b.layer("sim.measure_s", tracedMiss.measureS)
	d := diffStats(tracedStats[1].Runner, tracedStats[0].Runner)
	b.runnerLayers(d)
	bk := env.backing
	bk.mu.Lock()
	defer bk.mu.Unlock()
	b.layer("store.gets", float64(bk.gets))
	b.layer("store.get_hits", float64(bk.hits))
	b.layer("store.puts", float64(len(bk.putLat)))
	b.layer("store.get_ms_p50", median(bk.getLat)*1e3)
	b.layer("store.put_ms_p50", median(bk.putLat)*1e3)
	return nil
}

// diffStats is the Runner activity between two snapshots; resident warm
// entries are a level, not a count, and keep the later value.
func diffStats(a, b exp.Stats) exp.Stats {
	return exp.Stats{
		Runs: a.Runs - b.Runs, MemoHits: a.MemoHits - b.MemoHits, Coalesced: a.Coalesced - b.Coalesced,
		BackingHits: a.BackingHits - b.BackingHits,
		Warm: sim.WarmStats{Warmups: a.Warm.Warmups - b.Warm.Warmups, Hits: a.Warm.Hits - b.Warm.Hits,
			Entries: a.Warm.Entries},
	}
}

// addTotals folds one caller's simulated results into a run total; only
// the fields the serve workload reports are kept.
func addTotals(dst *simTotals, src simTotals) {
	dst.setupS += src.setupS
	dst.warmupS += src.warmupS
	dst.measureS += src.measureS
	dst.committed += src.committed
}

// verify re-simulates the sampled responses directly and compares every
// simulated field, and regenerates each served table locally.
func (s *serveRun) verify(ctx context.Context, samples []sample) error {
	for _, sm := range samples {
		opt := sm.opt
		if opt.Trace != nil {
			opt.Trace.Open = s.env.ts.Opener(opt.Trace.Key)
		}
		res, err := sim.Run(opt)
		if err != nil {
			return fmt.Errorf("direct re-simulation: %w", err)
		}
		s.b.check("serve.resimulate", sameSimulation(res, sm.res), "%s/%s/%s served a result that differs from a direct sim.Run",
			sm.res.Bench, sm.res.Scheme, sm.res.Style)
	}
	r := exp.NewRunner(s.b.cfg.serveN, s.b.cfg.serveWarm)
	r.Workers = s.b.cfg.workers
	for id, text := range s.tables {
		tb, err := exp.ByID(ctx, r, id)
		if err != nil {
			return err
		}
		s.b.check("serve.table_local", tb.Render() == text, "served table %s differs from a local regeneration", id)
	}
	return nil
}
