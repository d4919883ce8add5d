package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"syscall"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/sim"
)

// metric is one named number; its unit follows from its name (unitOf).
type metric struct {
	name  string
	value float64
}

// unitOf is the unit a metric name denotes.
func unitOf(name string) string {
	switch {
	case name == "minst_per_s":
		return "Minst/s"
	case name == "max_rss_mb":
		return "MB"
	case name == "fig4_energy_err_pp":
		return "pp"
	case strings.HasSuffix(name, "mb_per_s"):
		return "MB/s"
	case strings.HasSuffix(name, "ops_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, "_ms_p50"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.Contains(name, "ns_per_inst"):
		return "ns"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_mj"):
		return "mJ"
	case strings.HasSuffix(name, "ratio"), strings.HasSuffix(name, "accuracy"):
		return "ratio"
	}
	return "count"
}

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile interpolates linearly between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles is the ladder tail latency is chosen from.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// tail returns the highest ladder percentile with at least ten samples
// beyond it, and its value.
func tail(xs []float64) (pct, value float64) {
	pct = tailPercentiles[0]
	for _, p := range tailPercentiles {
		if float64(len(xs))*(1-p/100) >= 10 {
			pct = p
		}
	}
	return pct, quantile(xs, pct/100)
}

// latencyMetrics reports p50_ms and tail_ms over per-operation latencies
// in seconds, plus a note naming the tail's percentile and sample count.
func latencyMetrics(lat []float64) ([]metric, string) {
	pct, t := tail(lat)
	return []metric{{"p50_ms", median(lat) * 1e3}, {"tail_ms", t * 1e3}}, fmt.Sprintf("tail_ms is p%g over %d samples (%d beyond it)",
		pct, len(lat), int(math.Round(float64(len(lat))*(1-pct/100))))
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// simTotals accumulates what sim.Results report about the layers below
// sim: host-time phases, exact substrate counts and per scheme × style
// pipeline cost.
type simTotals struct {
	runs                           int
	setupS, warmupS, measureS      float64
	committed, cycles, wrong, stub uint64

	il1, dl1, l2         cache.Stats
	itlbAcc, itlbWalks   uint64
	dtlbAcc, dtlbWalks   uint64
	bpLookups, bpCorrect uint64
	engine               core.Stats
	energyMJ             float64

	// per scheme × style: measure seconds and committed instructions.
	cellS  map[string]float64
	cellIn map[string]uint64
}

func addCache(dst *cache.Stats, s cache.Stats) {
	dst.Accesses += s.Accesses
	dst.Misses += s.Misses
}

func (t *simTotals) add(r sim.Result) {
	t.runs++
	t.setupS += r.Timing.SetupSeconds
	t.warmupS += r.Timing.WarmupSeconds
	t.measureS += r.Timing.MeasureSeconds
	t.committed += r.Committed
	t.cycles += r.Cycles
	t.wrong += r.WrongPathFetches
	t.stub += r.Stubs
	addCache(&t.il1, r.IL1)
	addCache(&t.dl1, r.DL1)
	addCache(&t.l2, r.L2)
	if len(r.ITLB.Accesses) > 0 {
		t.itlbAcc += r.ITLB.Accesses[0]
	}
	t.itlbWalks += r.ITLB.Walks
	if len(r.DTLB.Accesses) > 0 {
		t.dtlbAcc += r.DTLB.Accesses[0]
	}
	t.dtlbWalks += r.DTLB.Walks
	t.bpLookups += r.Bpred.Lookups
	t.bpCorrect += r.Bpred.Correct
	t.engine.Lookups += r.Engine.Lookups
	t.engine.CFRHits += r.Engine.CFRHits
	t.engine.StaleUses += r.Engine.StaleUses
	t.energyMJ += r.EnergyMJ
	if t.cellS == nil {
		t.cellS, t.cellIn = map[string]float64{}, map[string]uint64{}
	}
	k := r.Scheme.String() + "." + r.Style.String()
	t.cellS[k] += r.Timing.MeasureSeconds
	t.cellIn[k] += r.Committed
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// styles lists the iL1 styles in a fixed order.
var styles = []cache.Style{cache.VIVT, cache.VIPT, cache.PIPT}

// schemeNames and styleNames spell every scheme and style the way the
// HTTP API and metric names do.
var schemeNames, styleNames = func() (sch, st []string) {
	for _, s := range core.Schemes() {
		sch = append(sch, s.String())
	}
	for _, s := range styles {
		st = append(st, s.String())
	}
	return sch, st
}()

// simMetrics reports the sim-phase split, the pipeline's cost per
// instruction for every scheme × style, and the exact substrate counts.
func (t *simTotals) simMetrics() []metric {
	ms := []metric{
		{"sim.setup_s", t.setupS},
		{"sim.warmup_s", t.warmupS},
		{"sim.measure_s", t.measureS},
	}
	for _, sch := range schemeNames {
		for _, st := range styleNames {
			k := sch + "." + st
			ms = append(ms, metric{"pipeline.ns_per_inst." + k,
				ratio(t.cellS[k]*1e9, float64(t.cellIn[k]))})
		}
	}
	return append(ms,
		metric{"pipeline.committed", float64(t.committed)},
		metric{"pipeline.cycles", float64(t.cycles)},
		metric{"pipeline.wrong_path_fetches", float64(t.wrong)},
		metric{"pipeline.stubs", float64(t.stub)},
		metric{"cache.il1.accesses", float64(t.il1.Accesses)},
		metric{"cache.il1.misses", float64(t.il1.Misses)},
		metric{"cache.dl1.accesses", float64(t.dl1.Accesses)},
		metric{"cache.dl1.misses", float64(t.dl1.Misses)},
		metric{"cache.l2.accesses", float64(t.l2.Accesses)},
		metric{"cache.l2.misses", float64(t.l2.Misses)},
		metric{"tlb.itlb.accesses", float64(t.itlbAcc)},
		metric{"tlb.itlb.walks", float64(t.itlbWalks)},
		metric{"tlb.dtlb.accesses", float64(t.dtlbAcc)},
		metric{"tlb.dtlb.walks", float64(t.dtlbWalks)},
		metric{"bpred.lookups", float64(t.bpLookups)},
		metric{"bpred.accuracy", ratio(float64(t.bpCorrect), float64(t.bpLookups))},
		metric{"core.lookups", float64(t.engine.Lookups)},
		metric{"core.cfr_hits", float64(t.engine.CFRHits)},
		metric{"core.cfr_hit_ratio", ratio(float64(t.engine.CFRHits),
			float64(t.engine.CFRHits+t.engine.Lookups))},
		metric{"core.stale_uses", float64(t.engine.StaleUses)},
		metric{"energy.total_mj", t.energyMJ},
	)
}

// sameSimulation reports whether two results agree in every simulated
// field: the host-time Timing and WallSeconds are excluded, everything
// else must match exactly.
func sameSimulation(a, b sim.Result) bool {
	a.Timing, b.Timing = sim.Timing{}, sim.Timing{}
	a.WallSeconds, b.WallSeconds = 0, 0
	return fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b)
}
