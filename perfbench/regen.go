package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand/v2"
	"strings"
	"time"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/compiler"
	"itlbcfr/internal/exp"
	"itlbcfr/internal/store"
	"itlbcfr/internal/workload"
)

// regenPins holds the sha256 of the rendered tables at each length the
// benchmark regenerates at, one "instructions warmup sha256" line each. A
// change to the model's output must update it, as it updates the golden
// corpus.
//
//go:embed regen.sha256
var regenPins string

// pinnedHash returns the pinned hash at n/warm, "" when none is pinned.
func pinnedHash(n, warm uint64) string {
	for _, l := range strings.Split(regenPins, "\n") {
		if f := strings.Fields(l); len(f) == 3 && f[0] == fmt.Sprint(n) && f[1] == fmt.Sprint(warm) {
			return f[2]
		}
	}
	return ""
}

// regenIter is what one full regeneration reports.
type regenIter struct {
	setupS, wallS float64
	stats         exp.Stats
	sims          simTotals
	latency       []float64 // per simulation, host seconds
	hash          string
}

// regenerate runs exp.All from a fresh Runner with no disk store, after
// prefetching every cell in an order permuted by (seed, iter). The order
// must not change the rendered output.
func regenerate(ctx context.Context, b *bench, iter uint64, tr *tracer) (regenIter, error) {
	var it regenIter
	t0 := time.Now()
	r := &exp.Runner{Instructions: b.cfg.regenN, Warmup: b.cfg.regenWarm, Workers: b.cfg.workers}
	specs := exp.Specs()
	cells := exp.Cells(specs)
	rng := rand.New(rand.NewPCG(b.cfg.seed, iter))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	t1 := time.Now()
	it.setupS = t1.Sub(t0).Seconds()

	op := tr.op()
	endOp, root := tr.begin("bench.regen", 0, op)
	end, _ := tr.begin("exp.prefetch", root, op)
	err := r.Prefetch(ctx, cells)
	end()
	if err != nil {
		endOp()
		return it, err
	}
	end, _ = tr.begin("exp.all", root, op)
	tables, err := exp.All(ctx, r)
	end()
	if err != nil {
		endOp()
		return it, err
	}
	end, _ = tr.begin("exp.render", root, op)
	h := sha256.New()
	for _, t := range tables {
		io.WriteString(h, t.Render())
	}
	end()
	endOp()
	it.wallS = time.Since(t1).Seconds()
	it.hash = hex.EncodeToString(h.Sum(nil))

	// Everything below reads the settled memo, outside the timed window.
	it.stats = r.Stats()
	seen := make(map[string]bool)
	for _, c := range cells {
		k := r.Key(c)
		if seen[k] {
			continue
		}
		seen[k] = true
		res, ok := r.Cached(c)
		if !ok {
			continue
		}
		it.sims.add(res)
		it.latency = append(it.latency, res.Timing.TotalSeconds())
	}
	return it, nil
}

// runRegen is the paper reproduction: full regenerations of every table and
// figure, back to back, at one fixed reduced length.
func runRegen(ctx context.Context, b *bench) error {
	var (
		setup, opsPerS, minst []float64
		lat                   [][]float64
		traced                []regenIter
		iter                  uint64
		hash                  string
	)
	b.measure(1, func(until time.Time, tr *tracer) (ops int, wall float64) {
		for first := true; first || time.Now().Before(until); first = false {
			it, err := regenerate(ctx, b, iter, tr)
			iter++
			n := len(it.latency)
			b.attempted += max(n, 1)
			if err != nil {
				b.failed += max(n, 1)
				b.logf("regeneration %d: %v", iter, err)
				continue
			}
			if hash == "" {
				hash = it.hash
			}
			b.check("regen.hash", it.hash == hash, "regeneration %d renders tables hashing %s, first hashed %s", iter, it.hash, hash)
			b.check("regen.runs", it.stats.Runs == n, "regeneration %d ran %d simulations for %d distinct cells", iter, it.stats.Runs, n)
			ops += it.stats.Runs
			wall += it.wallS
			setup = append(setup, it.setupS)
			if tr != nil {
				traced = append(traced, it)
				continue
			}
			opsPerS = append(opsPerS, float64(it.stats.Runs)/it.wallS)
			minst = append(minst, float64(it.sims.committed)/it.wallS/1e6)
			lat = append(lat, it.latency)
		}
		return ops, wall
	})
	b.note("ops_per_s by regeneration: %.4g", opsPerS)
	b.note("rendered tables sha256 %s over %d regenerations at n=%d warmup=%d", hash, iter, b.cfg.regenN, b.cfg.regenWarm)
	pin := pinnedHash(b.cfg.regenN, b.cfg.regenWarm)
	b.check("regen.pinned", pin != "" && hash == pin, "rendered tables hash %s at n=%d warmup=%d, pinned %q",
		hash, b.cfg.regenN, b.cfg.regenWarm, pin)

	b.e2e("setup_s", median(setup))
	b.e2e("ops_per_s", median(opsPerS))
	b.e2e("minst_per_s", median(minst))
	b.groupedLatency("regeneration", lat)

	if len(traced) == 0 {
		return nil
	}
	last := traced[len(traced)-1]
	b.layers(last.sims.simMetrics()...)
	b.runnerLayers(last.stats)
	n := float64(len(traced))
	prefetch, _ := b.tr.total("exp.prefetch")
	all, _ := b.tr.total("exp.all")
	render, _ := b.tr.total("exp.render")
	b.layer("exp.prefetch_s", prefetch/n)
	b.layer("exp.all_s", all/n)
	b.layer("exp.render_s", render/n)
	return imageProbe(b)
}

// imageProbe times workload generation and compilation once per distinct
// profile × page size × stub setting among the regeneration's cells — the
// images every simulation rebuilds during its own set-up.
func imageProbe(b *bench) error {
	type image struct {
		name  string
		page  uint64
		stubs bool
	}
	seen := make(map[image]bool)
	for _, c := range exp.Cells(exp.Specs()) {
		c = store.Canonical(c)
		k := image{c.Profile.Name, c.PageBytes, c.Scheme.NeedsStubs()}
		if seen[k] {
			continue
		}
		seen[k] = true
		op := b.tr.op()
		end, _ := b.tr.begin("workload.generate", 0, op)
		img, err := workload.Generate(c.Profile)
		end()
		if err != nil {
			return err
		}
		if img.Geom, err = addr.NewGeometry(c.PageBytes); err != nil {
			return err
		}
		end, _ = b.tr.begin("compiler.compile", 0, op)
		_, _, err = compiler.Compile(img, compiler.Options{InsertBoundaryStubs: k.stubs})
		end()
		if err != nil {
			return err
		}
	}
	gen, n := b.tr.total("workload.generate")
	comp, _ := b.tr.total("compiler.compile")
	b.layer("workload.images", float64(n))
	b.layer("workload.generate_s", gen)
	b.layer("compiler.compile_s", comp)
	return nil
}

// runnerLayers reports the Runner's memo counters and its warm-state
// pool's activity; fork_ratio is the share of simulations that forked a
// pooled warm state instead of warming up.
func (b *bench) runnerLayers(st exp.Stats) {
	b.layer("sim.warmups", float64(st.Warm.Warmups))
	b.layer("sim.forks", float64(st.Warm.Hits))
	b.layer("sim.fork_ratio", ratio(float64(st.Warm.Hits), float64(st.Runs)))
	b.layer("sim.warm_entries", float64(st.Warm.Entries))
	lookups := st.MemoHits + st.BackingHits + st.Runs
	b.layer("exp.runs", float64(st.Runs))
	b.layer("exp.memo_hits", float64(st.MemoHits))
	b.layer("exp.coalesced", float64(st.Coalesced))
	b.layer("exp.backing_hits", float64(st.BackingHits))
	b.layer("exp.memo_hit_ratio", ratio(float64(st.MemoHits), float64(lookups)))
}
