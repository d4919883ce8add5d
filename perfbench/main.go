// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the public APIs of exp, sim, trace, store, server and
// client, checks every output, and prints each metric by name and unit;
// the last line of standard output is a JSON summary.
//
//	perfbench --workload regen|trace|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, measured untraced. With
// --trace 1 it alternates untraced and traced slices, records spans around
// every call it makes into a layer, reports the per-layer metrics and the
// tracing overhead, and writes the spans to the work directory. METRICS.md
// describes every workload and metric. Run it from the repository root
// through run.sh, which builds it first.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"
)

// config fixes one run: where the repository and the scratch space are,
// the seed and budget, and each workload's simulation lengths.
type config struct {
	root, work string
	workload   string
	seed       uint64
	dur        time.Duration
	traced     bool
	workers    int

	// traceSetupReps and serveSetupReps are how many times set-up runs;
	// setup_s is the median (regen sets up once per regeneration).
	traceSetupReps, serveSetupReps int

	regenN, regenWarm           uint64
	traceN, traceWarm, traceLen uint64
	serveN, serveWarm           uint64
	// serveBackingRate is the sim_backing requests per caller-second the
	// set-up pre-populates the disk store for, for the first slice; later
	// slices are topped up from the rate measured.
	serveBackingRate float64
}

// defaultConfig is the configuration the benchmark is defined at.
func defaultConfig() config {
	return config{
		root: ".", work: ".bench_build",
		workers:        runtime.NumCPU(),
		traceSetupReps: 15, serveSetupReps: 3,
		regenN: 150_000, regenWarm: 30_000,
		traceN: 100_000, traceWarm: 20_000, traceLen: 60_000,
		serveN: 20_000, serveWarm: 5_000,
		serveBackingRate: 200,
	}
}

// e2eNames and layerNames are every metric a run reports, in order; a
// workload that does not exercise a layer reports 0 for it.
var e2eNames = []string{"setup_s", "ops_per_s", "minst_per_s", "p50_ms", "tail_ms", "max_rss_mb", "fig4_energy_err_pp"}

var layerNames = func() []string {
	names := []string{"sim.setup_s", "sim.warmup_s", "sim.measure_s"}
	for _, sch := range schemeNames {
		for _, st := range styleNames {
			names = append(names, "pipeline.ns_per_inst."+sch+"."+st)
		}
	}
	return append(names,
		"pipeline.committed", "pipeline.cycles", "pipeline.wrong_path_fetches", "pipeline.stubs",
		"cache.il1.accesses", "cache.il1.misses", "cache.dl1.accesses", "cache.dl1.misses",
		"cache.l2.accesses", "cache.l2.misses",
		"tlb.itlb.accesses", "tlb.itlb.walks", "tlb.dtlb.accesses", "tlb.dtlb.walks",
		"bpred.lookups", "bpred.accuracy",
		"core.lookups", "core.cfr_hits", "core.cfr_hit_ratio", "core.stale_uses",
		"energy.total_mj",
		"sim.warmups", "sim.forks", "sim.fork_ratio", "sim.warm_entries",
		"workload.images", "workload.generate_s", "compiler.compile_s",
		"trace.ingest_s", "trace.ingest_mb_per_s", "trace.replay_build_s", "trace.replay_ns_per_inst",
		"exp.runs", "exp.memo_hits", "exp.coalesced", "exp.backing_hits", "exp.memo_hit_ratio",
		"exp.prefetch_s", "exp.all_s", "exp.render_s",
		"store.gets", "store.get_hits", "store.puts", "store.get_ms_p50", "store.put_ms_p50",
		"server.sim_hit.p50_ms", "server.sim_backing.p50_ms", "server.sim_miss.p50_ms",
		"server.batch.p50_ms", "server.table.p50_ms", "server.trace_sim.p50_ms",
		"server.handler_s", "server.sem_wait_s", "client.overhead_s",
		"self.bench_s", "self.exp_s", "self.sim_s", "self.trace_s", "self.store_s",
		"self.client_s", "self.workload_s", "self.compiler_s",
		"bench.untraced_ops_per_s", "bench.traced_ops_per_s", "bench.trace_overhead_pct",
	)
}()

// bench is one run's state: the configuration, the tracer (nil when
// untraced), the operation tally and the metrics reported so far.
type bench struct {
	cfg config
	tr  *tracer

	attempted, failed int
	notes             []string
	e2eM, layerM      map[string]metric

	mu  sync.Mutex
	ran map[string]int // output checks made, by ID
}

func newBench(cfg config) *bench {
	b := &bench{cfg: cfg, e2eM: map[string]metric{}, layerM: map[string]metric{}, ran: map[string]int{}}
	if cfg.traced {
		b.tr = newTracer()
	}
	return b
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// note records a line printed with the results.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// check counts one output check as an operation, and as a failed one when
// ok is false.
func (b *bench) check(id string, ok bool, format string, args ...any) {
	b.mark(id)
	b.attempted++
	if !ok {
		b.failed++
		b.logf("check %s failed: "+format, append([]any{id}, args...)...)
	}
}

// mark records that the output check id was made; checks made inside an
// operation fail that operation rather than counting on their own.
func (b *bench) mark(id string) {
	b.mu.Lock()
	b.ran[id]++
	b.mu.Unlock()
}

func (b *bench) e2e(name string, v float64) { b.e2eM[name] = metric{name, v} }

func (b *bench) layer(name string, v float64) { b.layerM[name] = metric{name, v} }

func (b *bench) layers(ms ...metric) {
	for _, m := range ms {
		b.layerM[m.name] = m
	}
}

// latency reports p50_ms and tail_ms over per-operation latencies.
func (b *bench) latency(lat []float64) {
	ms, note := latencyMetrics(lat)
	for _, m := range ms {
		b.e2e(m.name, m.value)
	}
	b.note("%s", note)
}

// groupedLatency reports p50_ms over every latency and tail_ms as the
// median of each group's tail, and returns that tail in seconds. A whole
// run's tail is set by a few dozen operations, so one host stall moves it;
// the median of several groups' tails is not moved by one stall.
func (b *bench) groupedLatency(group string, groups [][]float64) float64 {
	var all, tails []float64
	for i, g := range groups {
		ms, note := latencyMetrics(g)
		all = append(all, g...)
		tails = append(tails, ms[1].value)
		b.note("%s %d: %s, %.4g ms", group, i+1, note, ms[1].value)
	}
	b.e2e("p50_ms", median(all)*1e3)
	b.e2e("tail_ms", median(tails))
	b.note("tail_ms is the median of %d %ss' tails", len(groups), group)
	return median(tails) / 1e3
}

// tracedOrder is a traced run's slices: an untraced warm-in slice, which
// absorbs a fresh server's first touches, and then untraced, traced,
// traced, untraced slices, so the tracing overhead compares like with like
// and linear drift cancels.
var tracedOrder = []int{-1, 0, 1, 1, 0} // -1 warm-in, 0 untraced, 1 traced

// slices is how many slices measure splits the budget into.
func (b *bench) slices(untraced int) int {
	if b.tr != nil {
		return len(tracedOrder)
	}
	return untraced
}

// measure spends the run's budget on fn, which runs operations until its
// deadline and returns how many it completed in how much wall time. An
// untraced run is split into the given number of equal slices; a traced
// run into tracedOrder's.
func (b *bench) measure(untracedSlices int, fn func(until time.Time, tr *tracer) (ops int, wall float64)) {
	if b.tr == nil {
		slice := b.cfg.dur / time.Duration(untracedSlices)
		for range untracedSlices {
			fn(time.Now().Add(slice), nil)
		}
		return
	}
	order := tracedOrder
	slice := b.cfg.dur / time.Duration(len(order))
	var ops [2]int
	var wall [2]float64
	for _, mode := range order {
		var tr *tracer
		if mode == 1 {
			tr = b.tr
		}
		o, w := fn(time.Now().Add(slice), tr)
		if mode >= 0 {
			ops[mode] += o
			wall[mode] += w
		}
	}
	untraced, traced := ratio(float64(ops[0]), wall[0]), ratio(float64(ops[1]), wall[1])
	b.layer("bench.untraced_ops_per_s", untraced)
	b.layer("bench.traced_ops_per_s", traced)
	b.layer("bench.trace_overhead_pct", 100*ratio(untraced-traced, untraced))
}

// selfLayers reports each layer's self time from the recorded spans.
func (b *bench) selfLayers() {
	for layer, s := range b.tr.selfSeconds() {
		b.layer("self."+layer+"_s", s)
	}
}

var workloads = map[string]func(context.Context, *bench) error{
	"regen": runRegen,
	"trace": runTrace,
	"serve": runServe,
}

// run executes the configured workload and the golden check, and returns
// the metrics to print.
func run(ctx context.Context, cfg config) (*bench, []metric, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want regen, trace or serve)", cfg.workload)
	}
	if _, err := os.Stat(filepath.Join(cfg.root, "go.mod")); err != nil {
		return nil, nil, fmt.Errorf("no repository at %s: %w", cfg.root, err)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, nil, err
	}
	b := newBench(cfg)
	if err := fn(ctx, b); err != nil {
		return b, nil, err
	}
	if err := goldenCheck(ctx, b); err != nil {
		return b, nil, fmt.Errorf("golden check: %w", err)
	}
	b.e2e("max_rss_mb", maxRSSMB())

	names, set := e2eNames, b.e2eM
	if cfg.traced {
		b.selfLayers()
		names, set = layerNames, b.layerM
		path := filepath.Join(cfg.work, "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := b.tr.write(path); err != nil {
			return b, nil, fmt.Errorf("writing spans: %w", err)
		}
		b.note("spans written to %s", path)
	}
	for name := range set {
		if !slices.Contains(names, name) {
			return b, nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	out := make([]metric, 0, len(names))
	for _, name := range names {
		m, ok := set[name]
		if !ok {
			m = metric{name: name}
		}
		out = append(out, m)
	}
	return b, out, nil
}

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: regen, trace or serve")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.root, "root", cfg.root, "repository root (holds the golden corpus)")
	flag.StringVar(&cfg.work, "work", cfg.work, "scratch directory for stores and span dumps")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.dur = time.Duration(*seconds) * time.Second
	cfg.traced = *trace == 1

	b, ms, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !report(os.Stdout, b, ms) {
		os.Exit(1)
	}
}

// report prints every metric by name and unit, the notes, and the JSON
// summary as the last line. It returns whether every operation and check
// succeeded.
func report(w io.Writer, b *bench, ms []metric) bool {
	for _, n := range b.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	metrics := make(map[string]any, len(ms))
	for _, m := range ms {
		fmt.Fprintf(w, "%-34s %16.6g %s\n", m.name, m.value, unitOf(m.name))
		metrics[m.name] = map[string]any{"value": m.value, "unit": unitOf(m.name)}
	}
	failFrac := ratio(float64(b.failed), float64(b.attempted))
	fmt.Fprintf(w, "%-34s %16.6g ratio (%d of %d operations)\n", "fail_frac", failFrac, b.failed, b.attempted)
	ok := b.failed == 0 && b.attempted > 0
	line, _ := json.Marshal(map[string]any{
		"correct":   ok,
		"attempted": max(b.attempted, 1),
		"failed":    b.failed,
		"metrics":   metrics,
	})
	fmt.Fprintln(w, string(line))
	return ok
}
