package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"itlbcfr/internal/obs"
	"itlbcfr/internal/sim"
)

// scrape fetches /metrics and parses it into series → value.
func scrape(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	m, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMetricsEndpoint: /metrics serves the exposition, request counters
// appear under their endpoint labels, and a simulation moves the runner
// counters and the latency histogram.
func TestMetricsEndpoint(t *testing.T) {
	s, _ := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	m1 := scrape(t, ts)
	if m1[`itlb_build_info{go_version="`+obs.ReadBuildInfo().GoVersion+`",revision="`+obs.ReadBuildInfo().Revision+`"}`] != 1 {
		t.Errorf("itlb_build_info series missing or not 1 in %d series", len(m1))
	}
	if m1["itlb_uptime_seconds"] <= 0 {
		t.Errorf("itlb_uptime_seconds = %g, want > 0", m1["itlb_uptime_seconds"])
	}

	if code, b := postSim(t, ts, `{"bench":"mesa","scheme":"IA"}`); code != http.StatusOK {
		t.Fatalf("sim = %d: %s", code, b)
	}
	m2 := scrape(t, ts)

	metricsSeries := `itlb_http_requests_total{endpoint="GET /metrics",code="200"}`
	if m2[metricsSeries] != m1[metricsSeries]+1 {
		t.Errorf("%s = %g after a scrape that observed %g", metricsSeries, m2[metricsSeries], m1[metricsSeries])
	}
	for series, want := range map[string]float64{
		`itlb_http_requests_total{endpoint="POST /v1/sim",code="200"}`: 1,
		`itlb_http_request_seconds_count{endpoint="POST /v1/sim"}`:     1,
		`itlb_runner_runs_total`:                                       1,
		`itlb_runner_stage_seconds_count{stage="sim_run"}`:             1,
	} {
		if m2[series] != want {
			t.Errorf("after one sim, %s = %g, want %g", series, m2[series], want)
		}
	}
	if m2[`itlb_runner_stage_seconds_sum{stage="sim_run"}`] <= 0 {
		t.Error("sim_run stage histogram observed no time")
	}
	// The scrape observes itself: its own request is the one in flight.
	if m2["itlb_http_in_flight"] != 1 {
		t.Errorf("itlb_http_in_flight = %g during the scrape, want 1", m2["itlb_http_in_flight"])
	}
}

// TestSimCoverageCounters: a /v1/sim miss adds its simulation's
// fast-path coverage to the itlb_sim_* counters, and a memo hit, which
// simulates nothing, leaves them alone.
func TestSimCoverageCounters(t *testing.T) {
	s, _ := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	series := []string{
		"itlb_sim_committed_total",
		"itlb_sim_bulk_committed_total",
		"itlb_sim_wrong_path_fetches_total",
		"itlb_sim_bulk_wrong_path_total",
	}
	const body = `{"bench":"mesa","scheme":"Base"}`
	before := scrape(t, ts)
	code, b := postSim(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("sim = %d: %s", code, b)
	}
	var resp struct {
		Result sim.Result `json:"result"`
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	res := resp.Result
	miss := scrape(t, ts)
	want := []float64{float64(res.Committed), float64(res.Timing.BulkCommitted),
		float64(res.WrongPathFetches), float64(res.Timing.BulkWrongPath)}
	for i, name := range series {
		if got := miss[name] - before[name]; got != want[i] || got <= 0 {
			t.Errorf("a miss moved %s by %g, want the result's %g (> 0)", name, got, want[i])
		}
	}
	if code, b := postSim(t, ts, body); code != http.StatusOK {
		t.Fatalf("repeat sim = %d: %s", code, b)
	}
	hit := scrape(t, ts)
	for _, name := range series {
		if hit[name] != miss[name] {
			t.Errorf("a memo hit moved %s from %g to %g", name, miss[name], hit[name])
		}
	}
}

// TestWarmPoolGauges: one /v1/sim miss warms up once, leaving one warm
// state and one compiled image, and the itlb_warm_* gauges show it.
func TestWarmPoolGauges(t *testing.T) {
	s, _ := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	before := scrape(t, ts)
	if code, b := postSim(t, ts, `{"bench":"mesa","scheme":"IA"}`); code != http.StatusOK {
		t.Fatalf("sim = %d: %s", code, b)
	}
	after := scrape(t, ts)
	for series, want := range map[string]float64{
		"itlb_warm_warmups": 1,
		"itlb_warm_forks":   0,
		"itlb_warm_entries": 1,
		"itlb_warm_images":  1,
	} {
		if got := after[series] - before[series]; got != want {
			t.Errorf("a miss moved %s by %g, want %g", series, got, want)
		}
	}
	if after["itlb_warm_bytes"] <= before["itlb_warm_bytes"] {
		t.Errorf("itlb_warm_bytes did not grow across a miss: %g -> %g",
			before["itlb_warm_bytes"], after["itlb_warm_bytes"])
	}
}

// TestHealthzBuildInfo: /healthz carries the build identity next to the
// liveness fields.
func TestHealthzBuildInfo(t *testing.T) {
	s, _ := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, b := get(t, ts, "/healthz")
	var h struct {
		Status    string  `json:"status"`
		Uptime    float64 `json:"uptime_s"`
		GoVersion string  `json:"go_version"`
		Revision  string  `json:"revision"`
	}
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Uptime <= 0 {
		t.Errorf("healthz = %s", b)
	}
	bi := obs.ReadBuildInfo()
	if h.GoVersion != bi.GoVersion || h.Revision != bi.Revision {
		t.Errorf("healthz build info = %q/%q, want %q/%q", h.GoVersion, h.Revision, bi.GoVersion, bi.Revision)
	}
}

// TestRequestIDGenerated: a request without X-Request-ID gets a fresh
// 16-hex-digit one echoed back.
func TestRequestIDGenerated(t *testing.T) {
	s, _ := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Errorf("generated X-Request-ID = %q, want 16 hex digits", id)
	}
}

// TestRequestIDPropagated: a well-formed caller-supplied ID is echoed in the
// response header and stamped on every NDJSON record of a batch stream; a
// malformed one is replaced.
func TestRequestIDPropagated(t *testing.T) {
	s, _ := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const rid = "load-test_007/a.b-c"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch",
		strings.NewReader(`{"sweep":{"benches":["mesa","crafty"],"schemes":["Base","IA"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", rid)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != rid {
		t.Errorf("batch echoed X-Request-ID %q, want %q", got, rid)
	}
	recs := decodeRecords(t, resp.Body)
	if len(recs) != 4 {
		t.Fatalf("streamed %d records, want 4", len(recs))
	}
	for _, rec := range recs {
		if rec.RequestID != rid {
			t.Errorf("record %d request_id = %q, want %q", rec.Index, rec.RequestID, rid)
		}
	}
	// The wire bytes carry the ID too — not just the decoded struct.
	if code, b := postSim(t, ts, `{"bench":"mesa","scheme":"Base"}`); code != http.StatusOK {
		t.Fatalf("sim = %d: %s", code, b)
	}

	for _, bad := range []string{"no spaces allowed", strings.Repeat("x", 65), `quote"injection`} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-ID", bad)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("X-Request-ID"); got == bad {
			t.Errorf("malformed ID %q was propagated", got)
		}
	}
}

// TestBatchRecordRequestIDOnWire: request_id appears in the raw NDJSON
// bytes, so archived records stay attributable without the HTTP envelope.
func TestBatchRecordRequestIDOnWire(t *testing.T) {
	s, _ := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch",
		strings.NewReader(`{"sims":[{"bench":"mesa","scheme":"Base"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "wire-check-1")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"request_id":"wire-check-1"`)) {
		t.Errorf("raw NDJSON lacks request_id: %s", raw)
	}
}

// TestStatsMetricsFold: /v1/stats carries the registry snapshot alongside
// the legacy counters.
func TestStatsMetricsFold(t *testing.T) {
	s, _ := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, b := postSim(t, ts, `{"bench":"mesa","scheme":"IA"}`); code != http.StatusOK {
		t.Fatalf("sim = %d: %s", code, b)
	}
	_, b := get(t, ts, "/v1/stats")
	var st struct {
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.Metrics == nil {
		t.Fatalf("stats has no metrics fold: %s", b)
	}
	var runs float64
	if err := json.Unmarshal(st.Metrics["itlb_runner_runs_total"], &runs); err != nil || runs != 1 {
		t.Errorf("metrics fold itlb_runner_runs_total = %s (err %v), want 1", st.Metrics["itlb_runner_runs_total"], err)
	}
	// The latency histogram is a vec keyed by endpoint label inside the fold.
	var hists map[string]struct {
		Count uint64  `json:"count"`
		Sum   float64 `json:"sum"`
	}
	if err := json.Unmarshal(st.Metrics["itlb_http_request_seconds"], &hists); err != nil {
		t.Fatalf("latency histogram fold: %v in %s", err, b)
	}
	hist, ok := hists["endpoint=POST /v1/sim"]
	if !ok || hist.Count != 1 || hist.Sum <= 0 {
		t.Errorf("latency histogram fold for the sim endpoint = %+v (present %v)", hist, ok)
	}
}
