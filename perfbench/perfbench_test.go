package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// tinyConfig runs a workload at lengths small enough for a unit test; only
// the measurement shrinks, every check still runs.
func tinyConfig(t *testing.T, workload string, traced bool) config {
	cfg := defaultConfig()
	cfg.root, cfg.work = "..", t.TempDir()
	cfg.workload, cfg.seed, cfg.traced = workload, 7, traced
	cfg.dur = 500 * time.Millisecond
	cfg.traceSetupReps, cfg.serveSetupReps = 2, 2
	cfg.regenN, cfg.regenWarm = 3_000, 1_000
	cfg.traceN, cfg.traceWarm, cfg.traceLen = 3_000, 1_000, 4_000
	cfg.serveN, cfg.serveWarm = 2_000, 1_000
	cfg.serveBackingRate = 400 // short simulations serve faster
	return cfg
}

// wantChecks lists the output checks each workload must make.
var wantChecks = map[string][]string{
	"regen": {"regen.hash", "regen.pinned", "regen.runs", "golden.corpus"},
	"trace": {"trace.synthesis_repeat", "trace.ingest_stats", "trace.rounds_agree",
		"trace.reingest_dedupe", "golden.corpus"},
	"serve": {"serve.prepopulated", "serve.key", "serve.batch_records", "serve.table_repeat",
		"serve.backing_hits", "serve.resimulate", "serve.table_local", "golden.corpus"},
}

func TestSmoke(t *testing.T) {
	for _, wl := range []string{"regen", "trace", "serve"} {
		for _, traced := range []bool{false, true} {
			name := wl
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				b, ms, err := run(context.Background(), tinyConfig(t, wl, traced))
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range wantChecks[wl] {
					if b.ran[id] == 0 {
						t.Errorf("check %s never ran", id)
					}
				}
				var out bytes.Buffer
				if !report(&out, b, ms) {
					t.Errorf("%d of %d operations failed:\n%s", b.failed, b.attempted, out.String())
				}
				names := e2eNames
				if traced {
					names = layerNames
				}
				checkOutput(t, out.String(), names)
			})
		}
	}
}

// checkOutput asserts that every named metric is printed on a line of its
// own with its unit, and that the last line is the JSON summary carrying
// exactly those metrics.
func checkOutput(t *testing.T, out string, names []string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	printed := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) >= 3 && f[0] != "#" {
			printed[f[0]] = f[2]
		}
	}
	for _, n := range names {
		if u, ok := printed[n]; !ok || u != unitOf(n) {
			t.Errorf("metric %s printed with unit %q, want %q", n, u, unitOf(n))
		}
	}
	var sum map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	keys := make([]string, 0, len(sum))
	for k := range sum {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Errorf("summary keys %v, want %v", keys, want)
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(sum["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(names) {
		t.Errorf("summary carries %d metrics, want %d", len(metrics), len(names))
	}
	for _, n := range names {
		if m, ok := metrics[n]; !ok || m.Value == nil || m.Unit != unitOf(n) {
			t.Errorf("summary metric %s = %+v", n, m)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// metrics the benchmark reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		decls []decl
		names []string
	}{{spec.EndToEnd, e2eNames}, {spec.PerLayer, layerNames}} {
		var got []string
		for _, d := range c.decls {
			got = append(got, d.Name)
			if d.Unit != unitOf(d.Name) {
				t.Errorf("%s declared in %s, reported in %s", d.Name, d.Unit, unitOf(d.Name))
			}
		}
		if !slices.Equal(got, c.names) {
			t.Errorf("declared %v\nreported %v", got, c.names)
		}
	}
}

// TestSelfSeconds checks the self-time derivation: overlapping children
// are merged and a child running past its parent is clipped.
func TestSelfSeconds(t *testing.T) {
	tr := newTracer()
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr.spans = []span{
		{ID: 1, Name: "bench.op", Start: ms(1), End: ms(11)},
		{ID: 2, Parent: 1, Name: "exp.a", Start: ms(2), End: ms(5)},
		{ID: 3, Parent: 1, Name: "sim.b", Start: ms(4), End: ms(7)},
		{ID: 4, Parent: 1, Name: "sim.c", Start: ms(9), End: ms(13)},
	}
	got := tr.selfSeconds()
	want := map[string]float64{"bench": 0.003, "exp": 0.003, "sim": 0.007}
	for layer, w := range want {
		if d := got[layer] - w; d > 1e-12 || d < -1e-12 {
			t.Errorf("self.%s = %v, want %v", layer, got[layer], w)
		}
	}
}
