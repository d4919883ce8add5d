package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"time"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/program"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/trace"
)

// traceClasses are the synthesized code footprints, Functions × FuncInsts ×
// 4 bytes: below the 8 KB iL1, between the iL1 and the 32-entry iTLB's
// 128 KB reach, just inside that reach, and well beyond it. The seed
// jitters FuncInsts by up to ±10%, which keeps each class on its side, and
// seeds each trace's walk. A walk's cost varies by ±25% with its seed, so
// each class has tracesPerClass walks and a round averages over them.
var traceClasses = []struct{ funcs, insts int }{
	{3, 500},   // ~6 KB
	{8, 800},   // ~26 KB
	{40, 600},  // ~96 KB
	{160, 400}, // ~256 KB
}

const tracesPerClass = 3

// synthTrace is one synthesized trace: its canonical bytes and the stats
// SynthesizeTo reported for them.
type synthTrace struct {
	cfg   trace.SynthConfig
	data  []byte
	stats trace.Stats
}

// synthesize builds the seed's traces.
func synthesize(seed, length uint64) ([]synthTrace, error) {
	rng := rand.New(rand.NewPCG(seed, 0x7ace))
	var out []synthTrace
	for _, c := range traceClasses {
		for i := 0; i < tracesPerClass; i++ {
			cfg := trace.SynthConfig{
				Seed:         rng.Uint64(),
				Instructions: length,
				Functions:    c.funcs,
				FuncInsts:    c.insts * (90 + rng.IntN(21)) / 100,
			}
			var buf bytes.Buffer
			st, err := trace.SynthesizeTo(&buf, cfg)
			if err != nil {
				return nil, fmt.Errorf("synthesizing %+v: %w", cfg, err)
			}
			out = append(out, synthTrace{cfg: cfg, data: buf.Bytes(), stats: st})
		}
	}
	return out, nil
}

// traceRound is what one round reports: every trace ingested into a fresh
// store, then simulated under every scheme.
type traceRound struct {
	wallS     float64
	ingestS   float64
	bytes     int64
	sims      simTotals
	latency   []float64
	results   []sim.Result // per trace × scheme
	attempted int
	failed    int
}

// traceRoundRun ingests the traces into a fresh store under dir and runs
// each through sim.Run under all six schemes on the configured workers,
// without the Runner memo or a warm pool.
func traceRoundRun(b *bench, traces []synthTrace, dir string, tr *tracer) (traceRound, error) {
	var rd traceRound
	schemes := core.Schemes()
	t0 := time.Now()
	op := tr.op()
	endOp, root := tr.begin("bench.trace_round", 0, op)
	defer endOp()
	ts, err := trace.OpenStore(dir)
	if err != nil {
		return rd, err
	}
	refs := make([]*sim.TraceRef, len(traces))
	for i, t := range traces {
		t1 := time.Now()
		end, _ := tr.begin("trace.ingest", root, op)
		meta, created, err := ts.Ingest(bytes.NewReader(t.data))
		end()
		rd.ingestS += time.Since(t1).Seconds()
		rd.attempted++
		b.mark("trace.ingest_stats")
		if err != nil || !created || meta.Stats != t.stats || meta.Bytes != int64(len(t.data)) {
			rd.failed++
			b.logf("ingest of trace %d: created=%v stats %+v, synthesized %+v, err %v", i, created, meta.Stats, t.stats, err)
			continue
		}
		rd.bytes += meta.Bytes
		refs[i] = &sim.TraceRef{Key: meta.Key, Open: ts.Opener(meta.Key)}
	}

	type job struct{ trace, scheme int }
	jobs := make(chan job)
	rd.results = make([]sim.Result, len(traces)*len(schemes))
	lat := make([]float64, len(rd.results))
	errs := make([]error, len(rd.results))
	var wg sync.WaitGroup
	for w := 0; w < b.cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				i := j.trace*len(schemes) + j.scheme
				opt := sim.Options{Trace: refs[j.trace], Scheme: schemes[j.scheme], Style: cache.VIPT,
					Instructions: b.cfg.traceN, Warmup: b.cfg.traceWarm}
				t1 := time.Now()
				end, _ := tr.begin("sim.run", root, op)
				rd.results[i], errs[i] = sim.Run(opt)
				end()
				lat[i] = time.Since(t1).Seconds()
			}
		}()
	}
	for t := range traces {
		if refs[t] == nil {
			continue
		}
		for s := range schemes {
			jobs <- job{t, s}
		}
	}
	close(jobs)
	wg.Wait()
	rd.wallS = time.Since(t0).Seconds()
	for i, err := range errs {
		if refs[i/len(schemes)] == nil {
			continue
		}
		rd.attempted++
		if err != nil {
			rd.failed++
			b.logf("trace simulation %d: %v", i, err)
			continue
		}
		rd.sims.add(rd.results[i])
		rd.latency = append(rd.latency, lat[i])
	}
	return rd, nil
}

// runTrace replays synthesized traces: ingest, SHA-256 verification, census
// and replay dominate, and exp, store and server are bypassed.
func runTrace(ctx context.Context, b *bench) error {
	var traces []synthTrace
	var setup []float64
	for i := 0; i < b.cfg.traceSetupReps; i++ {
		t0 := time.Now()
		ts, err := synthesize(b.cfg.seed, b.cfg.traceLen)
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
		if traces != nil {
			for j := range ts {
				b.check("trace.synthesis_repeat", bytes.Equal(ts[j].data, traces[j].data), "trace %d synthesized differently on repetition %d", j, i)
			}
		}
		traces = ts
	}
	for i, t := range traces {
		b.note("trace %d: %d functions x %d insts, %d records, %d pages, %d bytes",
			i, t.cfg.Functions, t.cfg.FuncInsts, t.stats.Instructions, t.stats.Pages, len(t.data))
	}

	tmp, err := os.MkdirTemp(b.cfg.work, "trace-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	var (
		opsPerS, minst, lat []float64
		first               []sim.Result
		traced              []traceRound
		round               int
	)
	b.measure(1, func(until time.Time, tr *tracer) (ops int, wall float64) {
		for start := true; start || time.Now().Before(until); start = false {
			if ctx.Err() != nil {
				return ops, wall
			}
			round++
			dir := filepath.Join(tmp, fmt.Sprintf("round%d", round))
			rd, err := traceRoundRun(b, traces, dir, tr)
			os.RemoveAll(dir)
			b.attempted += rd.attempted
			b.failed += rd.failed
			if err != nil {
				b.attempted++
				b.failed++
				b.logf("trace round %d: %v", round, err)
				continue
			}
			if first == nil {
				first = rd.results
			}
			for i := range rd.results {
				b.check("trace.rounds_agree", sameSimulation(rd.results[i], first[i]), "trace cell %d differs between rounds", i)
			}
			ops += len(rd.latency)
			wall += rd.wallS
			if tr != nil {
				traced = append(traced, rd)
				continue
			}
			opsPerS = append(opsPerS, float64(len(rd.latency))/rd.wallS)
			minst = append(minst, float64(rd.sims.committed)/rd.wallS/1e6)
			lat = append(lat, rd.latency...)
		}
		return ops, wall
	})
	if err := reingestCheck(b, traces, filepath.Join(tmp, "reingest")); err != nil {
		return err
	}

	b.e2e("setup_s", median(setup))
	b.e2e("ops_per_s", median(opsPerS))
	b.e2e("minst_per_s", median(minst))
	b.latency(lat)
	if len(traced) == 0 {
		return nil
	}
	last := traced[len(traced)-1]
	b.layers(last.sims.simMetrics()...)
	var ingestS float64
	var ingestB int64
	for _, rd := range traced {
		ingestS += rd.ingestS
		ingestB += rd.bytes
	}
	b.layer("trace.ingest_s", ingestS/float64(len(traced)))
	b.layer("trace.ingest_mb_per_s", ratio(float64(ingestB)/1e6, ingestS))
	return replayProbe(b, traces, filepath.Join(tmp, "probe"))
}

// reingestCheck ingests every trace into a fresh store twice: the second
// ingest must dedupe to the first's key.
func reingestCheck(b *bench, traces []synthTrace, dir string) error {
	ts, err := trace.OpenStore(dir)
	if err != nil {
		return err
	}
	for i, t := range traces {
		m1, _, err1 := ts.Ingest(bytes.NewReader(t.data))
		m2, created, err2 := ts.Ingest(bytes.NewReader(t.data))
		b.check("trace.reingest_dedupe", err1 == nil && err2 == nil && !created && m1.Key == m2.Key,
			"re-ingest of trace %d: created=%v keys %s/%s errors %v/%v", i, created, m1.Key, m2.Key, err1, err2)
	}
	return nil
}

// replayProbe times trace.NewReplay (hash verification, census and image
// reconstruction) for every trace with and without boundary stubs, and the
// replay's StepN over one simulation's worth of steps.
func replayProbe(b *bench, traces []synthTrace, dir string) error {
	ts, err := trace.OpenStore(dir)
	if err != nil {
		return err
	}
	steps := make([]program.Step, 1024)
	var stepped uint64
	for _, t := range traces {
		meta, _, err := ts.Ingest(bytes.NewReader(t.data))
		if err != nil {
			return err
		}
		for _, stubs := range []bool{false, true} {
			op := b.tr.op()
			end, _ := b.tr.begin("trace.replay_build", 0, op)
			rep, err := trace.NewReplay(ts.Opener(meta.Key), meta.Key, addr.DefaultGeometry, stubs)
			end()
			if err != nil {
				return err
			}
			end, _ = b.tr.begin("trace.replay_step", 0, op)
			for n := uint64(0); n < b.cfg.traceN+b.cfg.traceWarm; n += uint64(len(steps)) {
				rep.StepN(steps)
			}
			end()
			stepped += (b.cfg.traceN + b.cfg.traceWarm + uint64(len(steps)) - 1) / uint64(len(steps)) * uint64(len(steps))
			rep.Close()
		}
	}
	build, n := b.tr.total("trace.replay_build")
	step, _ := b.tr.total("trace.replay_step")
	b.layer("trace.replay_build_s", ratio(build, float64(n)))
	b.layer("trace.replay_ns_per_inst", ratio(step*1e9, float64(stepped)))
	return nil
}
