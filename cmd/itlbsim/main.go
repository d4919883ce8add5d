// Command itlbsim runs one or more simulations and prints their full
// results. Each of -bench, -scheme and -style accepts a comma-separated
// list ("all" expands every benchmark); the cross product of the three runs
// as a batch over a bounded worker pool.
//
//	itlbsim -bench vortex -scheme IA -style VI-VT -itlb 32
//	itlbsim -bench mesa -scheme Base -style PI-PT -itlb 16x2
//	itlbsim -bench gap -scheme IA -itlb 1+32           # two-level serial
//	itlbsim -bench all -scheme Base,IA -parallel 8     # 12-run batch
//	itlbsim -bench all -format csv -o results.csv      # machine-readable
//	itlbsim -bench all -timeout 1m                     # SIGINT also cancels
//	itlbsim -bench all -cache ~/.itlbcfr               # reuse results across runs
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/cliutil"
	"itlbcfr/internal/core"
	"itlbcfr/internal/exp"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/store"
	"itlbcfr/internal/tlb"
	"itlbcfr/internal/workload"
)

// errWriter tracks the first write error so the text format can surface
// failures (e.g. a full disk behind -o) instead of silently truncating.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

// parseITLB accepts "32" (FA), "16x2" (entries x assoc) and "1+32"
// (two-level serial FA); empty returns the zero config, which simulates the
// paper's default iTLB.
func parseITLB(s string) (tlb.Config, error) {
	if s == "" {
		return tlb.Config{}, nil
	}
	return tlb.ParseSpec(s)
}

func parseBenches(s string) ([]workload.Profile, error) {
	if strings.EqualFold(strings.TrimSpace(s), "all") {
		return workload.Profiles(), nil
	}
	var out []workload.Profile
	for _, name := range strings.Split(s, ",") {
		p, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func parseSchemes(s string) ([]core.Scheme, error) {
	var out []core.Scheme
	for _, name := range strings.Split(s, ",") {
		sch, err := core.ParseScheme(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, sch)
	}
	return out, nil
}

func parseStyles(s string) ([]cache.Style, error) {
	var out []cache.Style
	for _, name := range strings.Split(s, ",") {
		st, err := cache.ParseStyle(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

func printResult(w io.Writer, res sim.Result) {
	fmt.Fprintf(w, "benchmark        %s\n", res.Bench)
	fmt.Fprintf(w, "scheme / style   %s / %s\n", res.Scheme, res.Style)
	fmt.Fprintf(w, "committed        %d (+%d boundary stubs)\n", res.Committed, res.Stubs)
	fmt.Fprintf(w, "cycles           %d (IPC %.2f)\n", res.Cycles, res.IPC())
	fmt.Fprintf(w, "iTLB energy      %.6f mJ\n", res.EnergyMJ)
	fmt.Fprintf(w, "iTLB lookups     %d (BOUNDARY %d, BRANCH %d, base %d)\n",
		res.Engine.Lookups, res.Engine.LookupsBoundary, res.Engine.LookupsBranch, res.Engine.LookupsBase)
	fmt.Fprintf(w, "iTLB walks       %d\n", res.ITLB.Walks)
	fmt.Fprintf(w, "CFR hits         %d, comparator ops %d\n", res.Engine.CFRHits, res.Engine.Comparisons)
	fmt.Fprintf(w, "iL1 miss rate    %.4f (%d misses / %d accesses)\n",
		res.IL1MissRate(), res.IL1.Misses, res.IL1.Accesses)
	fmt.Fprintf(w, "branch accuracy  %.2f%% over %d CTIs\n", 100*res.Bpred.Accuracy(), res.Bpred.Lookups)
	fmt.Fprintf(w, "page crossings   BOUNDARY %d, BRANCH %d\n", res.CrossBoundary, res.CrossBranch)
	fmt.Fprintf(w, "wrong-path fetch %d\n", res.WrongPathFetches)
}

// summary is the machine-readable projection of one simulation, shared by
// the json and csv formats.
type summary struct {
	Bench         string  `json:"bench"`
	Scheme        string  `json:"scheme"`
	Style         string  `json:"style"`
	Committed     uint64  `json:"committed"`
	Stubs         uint64  `json:"stubs"`
	Cycles        uint64  `json:"cycles"`
	IPC           float64 `json:"ipc"`
	EnergyMJ      float64 `json:"energy_mj"`
	Lookups       uint64  `json:"itlb_lookups"`
	Walks         uint64  `json:"itlb_walks"`
	CFRHits       uint64  `json:"cfr_hits"`
	IL1MissRate   float64 `json:"il1_miss_rate"`
	BpredAccuracy float64 `json:"bpred_accuracy"`
	CrossBoundary uint64  `json:"cross_boundary"`
	CrossBranch   uint64  `json:"cross_branch"`
}

func summarize(res sim.Result) summary {
	return summary{
		Bench:         res.Bench,
		Scheme:        res.Scheme.String(),
		Style:         res.Style.String(),
		Committed:     res.Committed,
		Stubs:         res.Stubs,
		Cycles:        res.Cycles,
		IPC:           res.IPC(),
		EnergyMJ:      res.EnergyMJ,
		Lookups:       res.Engine.Lookups,
		Walks:         res.ITLB.Walks,
		CFRHits:       res.Engine.CFRHits,
		IL1MissRate:   res.IL1MissRate(),
		BpredAccuracy: res.Bpred.Accuracy(),
		CrossBoundary: res.CrossBoundary,
		CrossBranch:   res.CrossBranch,
	}
}

var csvHeader = []string{"bench", "scheme", "style", "committed", "stubs", "cycles", "ipc",
	"energy_mj", "itlb_lookups", "itlb_walks", "cfr_hits", "il1_miss_rate",
	"bpred_accuracy", "cross_boundary", "cross_branch"}

func (s summary) csvRow() []string {
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
	return []string{s.Bench, s.Scheme, s.Style, u(s.Committed), u(s.Stubs), u(s.Cycles),
		f(s.IPC), f(s.EnergyMJ), u(s.Lookups), u(s.Walks), u(s.CFRHits),
		f(s.IL1MissRate), f(s.BpredAccuracy), u(s.CrossBoundary), u(s.CrossBranch)}
}

func main() {
	bench := flag.String("bench", "mesa", "benchmark list (mesa, crafty, fma3d, eon, gap, vortex, or all)")
	scheme := flag.String("scheme", "IA", "translation scheme list (Base, OPT, HoA, SoCA, SoLA, IA)")
	style := flag.String("style", "VI-PT", "iL1 addressing list (VI-VT, VI-PT, PI-PT)")
	itlbSpec := flag.String("itlb", "32", "iTLB: N (FA), NxA (set-assoc), N+M (two-level serial)")
	n := flag.Uint64("n", sim.DefaultInstructions, "committed instructions")
	warm := flag.Uint64("warmup", sim.DefaultWarmup, "warm-up instructions")
	page := flag.Uint64("page", 0, "page size in bytes (0 = 4096)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "max concurrent simulations (1 = serial)")
	format := flag.String("format", "text", "output format: text, json, csv")
	out := flag.String("o", "", "write results to this file instead of stdout")
	timeout := flag.Duration("timeout", 0, "abort the batch after this duration (0 = none)")
	cacheDir := flag.String("cache", "", "disk-backed result store directory (empty = no reuse across runs)")
	checkVersion := cliutil.VersionFlag()
	flag.Parse()
	checkVersion()

	fail := cliutil.Fail

	benches, err := parseBenches(*bench)
	if err != nil {
		fail(err)
	}
	schemes, err := parseSchemes(*scheme)
	if err != nil {
		fail(err)
	}
	styles, err := parseStyles(*style)
	if err != nil {
		fail(err)
	}
	itlbCfg, err := parseITLB(*itlbSpec)
	if err != nil {
		fail(err)
	}
	f, err := exp.ParseFormat(*format)
	if err != nil {
		fail(err)
	}

	// Open the output early so a bad path fails before any compute.
	w, closeOut, err := cliutil.OpenOutput(*out)
	if err != nil {
		fail(err)
	}
	defer closeOut()

	var jobs []sim.Options
	for _, p := range benches {
		for _, sch := range schemes {
			for _, st := range styles {
				jobs = append(jobs, sim.Options{
					Profile: p, Scheme: sch, Style: st, ITLB: itlbCfg,
					Instructions: *n, Warmup: *warm, PageBytes: *page,
				})
			}
		}
	}

	ctx, stop := cliutil.SignalContext(*timeout)
	defer stop()

	// Batches run through the memoizing Runner so duplicate configurations
	// coalesce and -cache persists results across invocations.
	runner := exp.NewRunner(*n, *warm)
	runner.Workers = *parallel
	if *cacheDir != "" {
		st, err := store.Open(*cacheDir)
		if err != nil {
			fail(err)
		}
		runner.Backing = st
	}

	start := time.Now()
	results, errs := runner.Batch(ctx, jobs)

	failed := 0
	var ok []sim.Result
	for i, err := range errs {
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "%s/%s/%s: %v\n",
				jobs[i].Profile.Name, jobs[i].Scheme, jobs[i].Style, err)
			continue
		}
		ok = append(ok, results[i])
	}

	switch f {
	case exp.FormatJSON:
		sums := make([]summary, len(ok))
		for i, res := range ok {
			sums[i] = summarize(res)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sums); err != nil {
			fail(err)
		}
	case exp.FormatCSV:
		cw := csv.NewWriter(w)
		if err := cw.Write(csvHeader); err != nil {
			fail(err)
		}
		for _, res := range ok {
			if err := cw.Write(summarize(res).csvRow()); err != nil {
				fail(err)
			}
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			fail(err)
		}
	default:
		ew := &errWriter{w: w}
		for i, res := range ok {
			if i > 0 {
				fmt.Fprintln(ew)
			}
			printResult(ew, res)
		}
		if ew.err != nil {
			fail(ew.err)
		}
	}

	if len(jobs) > 1 {
		fmt.Fprintf(os.Stderr, "%d/%d simulations, %.1fs wall (parallel=%d)\n",
			len(ok), len(jobs), time.Since(start).Seconds(), *parallel)
	}
	if *cacheDir != "" {
		stats := runner.Stats()
		fmt.Fprintf(os.Stderr, "cache %s: %d hits, %d computed, %d write errors\n",
			*cacheDir, stats.BackingHits, stats.Runs, stats.PutErrors)
	}
	if failed > 0 {
		os.Exit(1)
	}
}
