package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/exp"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/store"
	"itlbcfr/internal/workload"
)

func testServer(t *testing.T, mutate func(*Config)) (*Server, *exp.Runner) {
	t.Helper()
	r := exp.NewRunner(20_000, 5_000)
	cfg := Config{Runner: r, MaxConcurrent: 4}
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg), r
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func postSim(t *testing.T, ts *httptest.Server, body string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/sim", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestHealthz(t *testing.T) {
	s, _ := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, b := get(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz = %d: %s", code, b)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m["status"] != "ok" {
		t.Errorf("healthz body: %s", b)
	}
}

func TestSpecs(t *testing.T) {
	s, _ := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, b := get(t, ts, "/v1/specs")
	if code != http.StatusOK {
		t.Fatalf("specs = %d: %s", code, b)
	}
	var specs []SpecInfo
	if err := json.Unmarshal(b, &specs); err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(exp.Specs()) {
		t.Errorf("specs lists %d entries, want %d", len(specs), len(exp.Specs()))
	}
	for _, sp := range specs {
		if sp.ID == "" || sp.Title == "" {
			t.Errorf("anonymous spec in listing: %+v", sp)
		}
	}
}

func TestSimEndpoint(t *testing.T) {
	s, r := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, b := postSim(t, ts, `{"bench":"mesa","scheme":"IA","style":"VI-PT","itlb":"32"}`)
	if code != http.StatusOK {
		t.Fatalf("sim = %d: %s", code, b)
	}
	var resp SimResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result.Committed == 0 || resp.Result.Bench != "177.mesa" {
		t.Errorf("empty or mislabeled result: %+v", resp.Result)
	}
	// The reported key must be the one the result is actually memoized
	// under — i.e. derived from the Runner-normalized options (its
	// instruction/warm-up defaults applied), not the raw request.
	want := r.Key(sim.Options{Profile: workload.Mesa(), Scheme: core.IA, Style: cache.VIPT})
	if resp.Key != want {
		t.Errorf("key = %q, want runner-normalized %q", resp.Key, want)
	}
	if r.Runs() != 1 {
		t.Errorf("runner ran %d simulations, want 1", r.Runs())
	}

	// A repeated request is a memo hit, not a new simulation.
	if code, _ := postSim(t, ts, `{"bench":"mesa","scheme":"IA","style":"VI-PT","itlb":"32"}`); code != http.StatusOK {
		t.Fatal("repeat request failed")
	}
	if r.Runs() != 1 {
		t.Errorf("repeat request re-simulated: %d runs", r.Runs())
	}

	for name, body := range map[string]string{
		"no bench":       `{}`,
		"bad bench":      `{"bench":"nonesuch"}`,
		"bad scheme":     `{"bench":"mesa","scheme":"XX"}`,
		"bad style":      `{"bench":"mesa","style":"XX-XX"}`,
		"bad itlb":       `{"bench":"mesa","itlb":"banana"}`,
		"bad itlb geom":  `{"bench":"mesa","itlb":"0x9"}`,
		"bad page":       `{"bench":"mesa","page_bytes":3000}`,
		"unknown field":  `{"bench":"mesa","bogus":1}`,
		"not json":       `{`,
		"empty body":     ``,
		"truncated":      `{"bench":"mes`,
		"wrong type":     `{"bench":42}`,
		"array body":     `[{"bench":"mesa"}]`,
		"null body":      `null`,
		"trailing junk":  `{"bench":"mesa"} garbage`,
		"double encoded": `"{\"bench\":\"mesa\"}"`,
	} {
		code, b := postSim(t, ts, body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: code = %d, want 400 (%s)", name, code, b)
			continue
		}
		var apiErr struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(b, &apiErr); err != nil || apiErr.Error == "" {
			t.Errorf("%s: 400 body is not a JSON error: %s", name, b)
		}
	}
}

// TestSimCoalescing: duplicate in-flight configurations simulate once.
func TestSimCoalescing(t *testing.T) {
	s, r := testServer(t, func(c *Config) { c.MaxConcurrent = 8 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 8
	body := `{"bench":"vortex","scheme":"IA"}`
	var wg sync.WaitGroup
	codes := make([]int, clients)
	bodies := make([][]byte, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/sim", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}()
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: %d %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("client %d saw a different body", i)
		}
	}
	if r.Runs() != 1 {
		t.Errorf("%d concurrent identical requests ran %d simulations, want 1", clients, r.Runs())
	}
}

func TestTableEndpoint(t *testing.T) {
	s, _ := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, b := get(t, ts, "/v1/tables/5")
	if code != http.StatusOK || !bytes.Contains(b, []byte("Table 5")) {
		t.Fatalf("tables/5 = %d: %s", code, b)
	}
	code, b = get(t, ts, "/v1/tables/5?format=json")
	if code != http.StatusOK {
		t.Fatalf("tables/5 json = %d: %s", code, b)
	}
	var tb exp.Table
	if err := json.Unmarshal(b, &tb); err != nil {
		t.Fatal(err)
	}
	if tb.ID != "Table 5" || len(tb.Rows) == 0 {
		t.Errorf("bad table: %+v", tb)
	}
	if code, _ := get(t, ts, "/v1/tables/nonesuch"); code != http.StatusNotFound {
		t.Errorf("unknown table = %d, want 404", code)
	}
	if code, _ := get(t, ts, "/v1/tables/5?format=xml"); code != http.StatusBadRequest {
		t.Errorf("bad format = %d, want 400", code)
	}
}

func TestStats(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, r := testServer(t, func(c *Config) { c.Store = st })
	r.Backing = st
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postSim(t, ts, `{"bench":"mesa"}`)
	code, b := get(t, ts, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats = %d: %s", code, b)
	}
	var resp StatsResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Runner.Runs != 1 || resp.Requests < 1 || resp.Store == nil || resp.Store.Puts != 1 {
		t.Errorf("stats missing activity: %s", b)
	}
	if resp.SimWallSecs <= 0 {
		t.Errorf("sim wall-time not tracked: %s", b)
	}
	if w := resp.Runner.Warm; w.Entries != 1 || w.Images != 1 || w.Bytes <= 0 {
		t.Errorf("warm pool residency (entries, images, bytes) not reported: %+v", w)
	}
}

// TestRequestTimeout: a deadline shorter than the simulation yields 504 and
// the server stays healthy.
func TestRequestTimeout(t *testing.T) {
	s, _ := testServer(t, func(c *Config) { c.RequestTimeout = time.Nanosecond })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, b := postSim(t, ts, `{"bench":"mesa"}`)
	if code != http.StatusGatewayTimeout && code != http.StatusServiceUnavailable {
		t.Errorf("timed-out request = %d (%s), want 503/504", code, b)
	}
	if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Error("server unhealthy after a timed-out request")
	}
}

// TestSemaphoreSaturation: with every simulation slot occupied, a request
// that cannot get a slot inside its deadline gets 504 (503 on a canceled
// wait) and the slot machinery recovers once the occupant finishes.
func TestSemaphoreSaturation(t *testing.T) {
	// One slot; ~1.4s per simulation so the occupant comfortably outlives
	// the second request's deadline.
	r := exp.NewRunner(20_000_000, 0)
	s := New(Config{Runner: r, MaxConcurrent: 1, RequestTimeout: 300 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// No postSim here: its t.Fatal would Goexit this goroutine without
	// sending, deadlocking the receive below.
	occupant := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/sim", "application/json",
			strings.NewReader(`{"bench":"mesa"}`))
		if err != nil {
			occupant <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		occupant <- resp.StatusCode
	}()
	time.Sleep(100 * time.Millisecond) // let the occupant take the slot

	code, b := postSim(t, ts, `{"bench":"crafty"}`)
	if code != http.StatusGatewayTimeout && code != http.StatusServiceUnavailable {
		t.Errorf("starved request = %d (%s), want 503/504", code, b)
	}
	if !bytes.Contains(b, []byte("no simulation slot")) {
		t.Errorf("starved request body does not name the cause: %s", b)
	}

	// The occupant started before its deadline and runs to completion.
	if code := <-occupant; code != http.StatusOK {
		t.Errorf("occupant = %d, want 200", code)
	}
	// The slot is free again: a cached config answers instantly.
	if code, b := postSim(t, ts, `{"bench":"mesa"}`); code != http.StatusOK {
		t.Errorf("request after saturation = %d: %s", code, b)
	}
	if r.Runs() != 1 {
		t.Errorf("runner ran %d simulations, want 1 (starved request must not run)", r.Runs())
	}
}

// TestGracefulShutdown: canceling Serve's context stops accepting, lets
// in-flight requests finish, and returns nil.
func TestGracefulShutdown(t *testing.T) {
	s, _ := testServer(t, func(c *Config) { c.ShutdownGrace = 5 * time.Second })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, l) }()

	base := fmt.Sprintf("http://%s", l.Addr())
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before shutdown = %d", resp.StatusCode)
	}

	// Kick off a real simulation and shut down while it is likely in
	// flight; the grace period must let it finish.
	simDone := make(chan int, 1)
	go func() {
		r, err := http.Post(base+"/v1/sim", "application/json",
			strings.NewReader(`{"bench":"gap","scheme":"HoA"}`))
		if err != nil {
			simDone <- -1
			return
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		simDone <- r.StatusCode
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()

	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil on graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}
	if code := <-simDone; code != http.StatusOK && code != -1 {
		t.Errorf("in-flight simulation finished with %d", code)
	}

	// The listener is closed: new connections must fail.
	if _, err := net.DialTimeout("tcp", l.Addr().String(), 200*time.Millisecond); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}
