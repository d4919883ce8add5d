package exp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/tlb"
	"itlbcfr/internal/trace"
	"itlbcfr/internal/workload"
)

// The count ledger pins every host-independent number a simulation
// reports — each event count, both bulk counters and the exact energy — for
// every cell of the golden specs plus a few canary cells no golden table
// covers, at the golden length. The goldens pin renderings, which round
// energies and never show the fast-path counters; the ledger pins the
// results themselves, so a change that only moves the simulator's speed
// leaves it byte-identical and anything else fails it on any host.
// Regenerate deliberately with: go test ./internal/exp -run TestCountLedger -update
var countsPath = filepath.Join("testdata", "counts.txt")

// ledgerCanaries are the configurations the golden specs leave out: OS
// pressure (remaps and context switches), a replayed trace, a two-level
// iTLB and a non-default page size.
func ledgerCanaries(t *testing.T) []sim.Options {
	t.Helper()
	cadenced := sim.DefaultPipeline()
	cadenced.RemapEvery = 7_000
	cadenced.ContextSwitchEvery = 13_000

	var buf bytes.Buffer
	if _, err := trace.SynthesizeTo(&buf, trace.SynthConfig{Seed: 3, Instructions: 30_000}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	ref := &sim.TraceRef{
		Key:  fmt.Sprintf("t1-%x", sha256.Sum256(raw)),
		Open: func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(raw)), nil },
	}

	twoLevel, err := tlb.ParseSpec("1+32")
	if err != nil {
		t.Fatal(err)
	}
	return []sim.Options{
		{Profile: workload.Mesa(), Scheme: core.IA, Style: cache.VIPT, Pipeline: &cadenced},
		{Trace: ref, Scheme: core.IA, Style: cache.VIPT},
		{Profile: workload.Crafty(), Scheme: core.Base, Style: cache.VIPT, ITLB: twoLevel},
		{Profile: workload.Crafty(), Scheme: core.SoLA, Style: cache.VIPT, PageBytes: 16 << 10},
	}
}

// withoutHostTime zeroes a result's wall-clock fields, leaving exactly what
// the host cannot change.
func withoutHostTime(res sim.Result) sim.Result {
	res.WallSeconds = 0
	res.Timing.SetupSeconds, res.Timing.WarmupSeconds = 0, 0
	res.Timing.MeasureSeconds, res.Timing.InstPerSec = 0, 0
	return res
}

// ledgerLine renders one cell's ledger line: its key, then its result JSON
// without host time.
func ledgerLine(t *testing.T, key string, res sim.Result) string {
	t.Helper()
	buf, err := json.Marshal(withoutHostTime(res))
	if err != nil {
		t.Fatal(err)
	}
	return key + " " + string(buf)
}

// countLedger simulates every ledger cell through one Runner with the given
// worker bound and renders one line per cell — its store key and its
// result JSON without host time — sorted by key, then a trailer with the
// Runner's and the warm pool's counters.
func countLedger(t *testing.T, workers int) string {
	t.Helper()
	var cells []sim.Options
	for _, id := range goldenIDs {
		sp, err := SpecByID(id)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, sp.Cells()...)
	}
	cells = append(cells, ledgerCanaries(t)...)

	r := NewRunner(goldenInstructions, goldenWarmup)
	r.Workers = workers
	if err := r.Prefetch(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	lines := make(map[string]string, len(cells))
	for _, c := range cells {
		j := r.Job(c)
		res, ok := r.CachedJob(j)
		if !ok {
			t.Fatalf("%s/%s: cell missing from the memo", c.BenchName(), c.Scheme)
		}
		lines[j.Key] = ledgerLine(t, j.Key, res)
	}
	sorted := make([]string, 0, len(lines))
	for _, l := range lines {
		sorted = append(sorted, l)
	}
	sort.Strings(sorted)

	st := r.Stats()
	return fmt.Sprintf("# counts: %s + canaries @ n=%d warmup=%d\n%s\n"+
		"# runs=%d warmups=%d forks=%d entries=%d images=%d\n",
		strings.Join(goldenIDs, " "), goldenInstructions, goldenWarmup, strings.Join(sorted, "\n"),
		st.Runs, st.Warm.Warmups, st.Warm.Hits, st.Warm.Entries, st.Warm.Images)
}

// TestCountLedger holds a serial and a fully parallel regeneration to the
// committed ledger.
func TestCountLedger(t *testing.T) {
	serial := countLedger(t, 1)
	if *update {
		if err := os.WriteFile(countsPath, []byte(serial), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(countsPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	check := func(workers int, got string) {
		if got != string(want) {
			t.Errorf("Workers: %d drifted from %s (run with -update if intended):\n%s",
				workers, countsPath, ledgerDiff(string(want), got))
		}
	}
	check(1, serial)
	check(runtime.NumCPU(), countLedger(t, runtime.NumCPU()))
}

// ledgerDiff names the first cell that differs and every field of it that
// moved; lines that are not two versions of one cell (the header, the
// trailer, an added or lost cell) fall back to renderDiff.
func ledgerDiff(want, got string) string {
	n, w, g := firstDiff(want, got)
	wk, wf, wok := cellFields(w)
	gk, gf, gok := cellFields(g)
	if !wok || !gok || wk != gk {
		return renderDiff(want, got)
	}
	var moved []string
	for f, v := range wf {
		if gf[f] != v {
			moved = append(moved, fmt.Sprintf("  %s: %s -> %s", f, v, gf[f]))
		}
	}
	for f, v := range gf {
		if _, ok := wf[f]; !ok {
			moved = append(moved, fmt.Sprintf("  %s: (absent) -> %s", f, v))
		}
	}
	sort.Strings(moved)
	return fmt.Sprintf("line %d, cell %s (%s/%s/%s):\n%s",
		n, wk, wf["bench"], wf["scheme"], wf["style"], strings.Join(moved, "\n"))
}

// cellFields splits a ledger cell line into its key and its result JSON
// flattened to dotted field paths.
func cellFields(line string) (key string, fields map[string]string, ok bool) {
	key, js, found := strings.Cut(line, " ")
	if !found || !strings.HasPrefix(js, "{") {
		return "", nil, false
	}
	d := json.NewDecoder(strings.NewReader(js))
	d.UseNumber()
	var v any
	if d.Decode(&v) != nil {
		return "", nil, false
	}
	fields = make(map[string]string)
	var walk func(path string, v any)
	walk = func(path string, v any) {
		if m, isObj := v.(map[string]any); isObj {
			for k, x := range m {
				walk(path+"."+k, x)
			}
			return
		}
		fields[strings.TrimPrefix(path, ".")] = fmt.Sprint(v)
	}
	walk("", v)
	return key, fields, true
}
