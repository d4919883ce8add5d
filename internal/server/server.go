// Package server exposes the simulation engine as a long-lived HTTP JSON
// service — the paper's "pay the translation once, reuse it many times"
// economics applied to whole simulations. A single shared exp.Runner fronts
// every request, so duplicate in-flight configurations coalesce onto one
// simulation, results persist across requests (and across restarts when a
// disk store backs the Runner), and table regeneration shares cells with
// individual /v1/sim queries.
//
// Endpoints:
//
//	GET  /healthz           liveness + uptime + build identity
//	GET  /metrics           Prometheus text exposition (internal/obs)
//	GET  /v1/specs          every table/figure spec (id, title, cell count)
//	GET  /v1/tables/{id}    one regenerated table (?format=text|json|csv)
//	POST /v1/sim            one simulation configuration -> full result
//	POST /v1/batch          many configurations (list and/or declarative
//	                        sweep) -> NDJSON stream in completion order
//	GET  /v1/stats          runner/store/server counters + metrics snapshot
//
// Every response carries an X-Request-ID (the caller's, when propagatable,
// else generated), each request emits one structured access-log line
// through Config.Logger, and per-endpoint counters/latency histograms feed
// GET /metrics — the serving tier accounts for its own work the way the
// paper accounts for iTLB energy.
//
// Simulations are CPU-bound and non-interruptible once started, so the
// server bounds how many run concurrently (Config.MaxConcurrent) and
// applies a per-request deadline (Config.RequestTimeout): a request that
// cannot start in time gets 503, one that cannot finish in time gets 504,
// and a coalesced waiter abandoning its wait does not abort the owner's
// simulation — the result still lands in the memo for the next caller.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/exp"
	"itlbcfr/internal/obs"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/store"
	"itlbcfr/internal/tlb"
	"itlbcfr/internal/trace"
)

// Config assembles a Server.
type Config struct {
	// Runner executes and memoizes simulations. Required.
	Runner *exp.Runner

	// Store, when non-nil, is reported under /v1/stats. (Attach it to the
	// Runner as Backing to actually serve from it; the server never reads
	// it directly.)
	Store *store.Store

	// Traces, when non-nil, enables the trace endpoints (POST/GET
	// /v1/traces) and extends the workload namespace /v1/sim and /v1/batch
	// resolve bench names in: stored traces become runnable by alias, bare
	// key, or "trace:<key>". Nil serves profiles only; the trace endpoints
	// answer 503.
	Traces *trace.Store

	// TraceUploadLimit caps one POST /v1/traces body in bytes
	// (0 = DefaultTraceUploadLimit). Oversized uploads get 413.
	TraceUploadLimit int64

	// MaxConcurrent bounds how many requests may simulate at once
	// (0 = 2 x NumCPU). Waiting for a slot counts against the request's
	// deadline.
	MaxConcurrent int

	// RequestTimeout is the per-request deadline (0 = none).
	RequestTimeout time.Duration

	// ShutdownGrace bounds how long Serve waits for in-flight requests
	// after its context is canceled (0 = 5s).
	ShutdownGrace time.Duration

	// Registry collects the server's metrics for GET /metrics (nil = a
	// fresh private registry). The Runner's metrics are registered here
	// too unless the Runner already has a set.
	Registry *obs.Registry

	// Logger receives one structured access-log line per request plus
	// error-path events (nil = discard; the daemon passes a real logger,
	// tests stay quiet).
	Logger *slog.Logger
}

// Server is the HTTP front end. Create with New.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	sem   chan struct{}
	start time.Time
	log   *slog.Logger
	reg   *obs.Registry
	met   *httpMetrics
	tmet  *traceMetrics
	build obs.BuildInfo
}

// New builds a Server around a shared Runner.
func New(cfg Config) *Server {
	if cfg.Runner == nil {
		panic("server: Config.Runner is required")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2 * runtime.NumCPU()
	}
	if cfg.ShutdownGrace <= 0 {
		cfg.ShutdownGrace = 5 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.TraceUploadLimit <= 0 {
		cfg.TraceUploadLimit = DefaultTraceUploadLimit
	}
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		sem:   make(chan struct{}, cfg.MaxConcurrent),
		start: time.Now(),
		log:   cfg.Logger,
		reg:   cfg.Registry,
		met:   newHTTPMetrics(cfg.Registry),
		tmet:  newTraceMetrics(cfg.Registry),
		build: obs.ReadBuildInfo(),
	}
	s.reg.GaugeFunc("itlb_trace_registry_size", "resolvable workloads (profiles + stored traces)",
		func() float64 { return float64(s.registry().Size()) })
	s.reg.Info("itlb_build_info", "build metadata of the serving binary",
		obs.Label{Name: "go_version", Value: s.build.GoVersion},
		obs.Label{Name: "revision", Value: s.build.Revision})
	s.reg.GaugeFunc("itlb_uptime_seconds", "seconds since the server was built",
		func() float64 { return time.Since(s.start).Seconds() })
	// Export the Runner's counters/stage timings through the same registry
	// unless the caller wired its own metric set already.
	if cfg.Runner.Metrics == nil {
		cfg.Runner.Metrics = exp.NewMetrics(s.reg)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", s.reg.Handler())
	s.mux.HandleFunc("GET /v1/specs", s.handleSpecs)
	s.mux.HandleFunc("GET /v1/tables/{id}", s.handleTable)
	s.mux.HandleFunc("POST /v1/sim", s.handleSim)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/traces", s.handleTraceUpload)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraceList)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s
}

// Handler returns the server's HTTP handler (also usable under httptest).
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP implements http.Handler: it assigns/propagates the request ID,
// counts and times the request per endpoint, and emits one structured
// access-log line when it completes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	// The route pattern labels the metrics so path parameters ({id}) do
	// not explode the series space.
	_, endpoint := s.mux.Handler(r)
	if endpoint == "" {
		endpoint = "unmatched"
	}
	rid := requestID(r)
	w.Header().Set(requestIDHeader, rid)
	sw := &statusWriter{ResponseWriter: w}
	s.met.requests.Inc()
	s.met.inFlight.Inc()
	defer s.met.inFlight.Dec()
	s.mux.ServeHTTP(sw, r)
	d := time.Since(t0)
	s.met.requestsByEndpoint.With(endpoint, strconv.Itoa(sw.Status())).Inc()
	s.met.latency.With(endpoint).Observe(d.Seconds())
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("id", rid),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("endpoint", endpoint),
		slog.Int("status", sw.Status()),
		slog.Int64("bytes", sw.bytes),
		slog.Duration("duration", d),
		slog.String("remote", r.RemoteAddr))
}

// Serve accepts connections on l until ctx is canceled, then shuts down
// gracefully: the listener closes, in-flight requests get ShutdownGrace to
// finish (their contexts are canceled so coalesced waiters return
// promptly), and stragglers are force-closed. Returns nil on a clean
// shutdown.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	hs := &http.Server{
		Handler: s,
		// Derive request contexts from ctx so cancellation reaches every
		// in-flight handler, not just the accept loop.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			hs.Close()
			return err
		}
		return nil
	}
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, l)
}

// requestContext applies the per-request timeout.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// acquireSlot takes a simulation slot, instrumenting the wait (gauge while
// queued, histogram of the wait itself, in-use gauge while held). The
// caller must release() after a nil return.
func (s *Server) acquireSlot(ctx context.Context) error {
	t0 := time.Now()
	s.met.semWaiting.Inc()
	defer func() {
		s.met.semWaiting.Dec()
		s.met.semWait.ObserveSince(t0)
	}()
	select {
	case s.sem <- struct{}{}:
		s.met.semInUse.Inc()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// acquire is acquireSlot with the 503 (queue full) or 504 (deadline passed
// while queued) response already written on failure.
func (s *Server) acquire(ctx context.Context, w http.ResponseWriter) bool {
	if err := s.acquireSlot(ctx); err != nil {
		writeError(w, statusFor(err), fmt.Errorf("no simulation slot: %w", err))
		return false
	}
	return true
}

func (s *Server) release() {
	s.met.semInUse.Dec()
	<-s.sem
}

// statusFor maps a compute error to an HTTP status.
func statusFor(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// decodeStrict decodes exactly one JSON value from r into v, rejecting
// unknown fields and trailing data (a concatenated or garbage-suffixed body
// is a malformed request, not a request plus noise to ignore).
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return errors.New("unexpected data after the JSON body")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // headers are out; nothing useful to do with an error here
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"uptime_s":   time.Since(s.start).Seconds(),
		"in_flight":  s.met.inFlight.Value(),
		"go_version": s.build.GoVersion,
		"revision":   s.build.Revision,
	})
}

// SpecInfo describes one regenerable table/figure.
type SpecInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Cells int    `json:"cells"`
}

func (s *Server) handleSpecs(w http.ResponseWriter, r *http.Request) {
	specs := exp.Specs()
	out := make([]SpecInfo, 0, len(specs))
	for _, sp := range specs {
		out = append(out, SpecInfo{ID: sp.ID, Title: sp.Title, Cells: len(sp.Cells())})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spec, err := exp.SpecByID(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	format, err := exp.ParseFormat(r.URL.Query().Get("format"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	if !s.acquire(ctx, w) {
		return
	}
	defer s.release()
	tb, err := spec.Generate(ctx, s.cfg.Runner)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	switch format {
	case exp.FormatJSON:
		writeJSON(w, http.StatusOK, tb)
	case exp.FormatCSV:
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		exp.WriteTables(w, exp.FormatCSV, []exp.Table{tb})
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, tb.Render())
	}
}

// SimRequest selects one simulation. Zero/empty fields take the paper's
// defaults, exactly as the CLIs and the store's canonical encoding do.
// Bench names a calibrated profile, or — on a server with a trace store —
// a stored trace by alias, bare key, or "trace:<key>".
type SimRequest struct {
	Bench        string `json:"bench"`
	Scheme       string `json:"scheme,omitempty"`       // Base, OPT, HoA, SoCA, SoLA, IA
	Style        string `json:"style,omitempty"`        // VI-VT, VI-PT, PI-PT
	ITLB         string `json:"itlb,omitempty"`         // "32", "16x2", "1+32"
	PageBytes    uint64 `json:"page_bytes,omitempty"`   // 0 = 4096
	Instructions uint64 `json:"instructions,omitempty"` // 0 = server default
	Warmup       uint64 `json:"warmup,omitempty"`       // 0 = server default
}

// fill parses the non-workload fields onto opt (whose Profile or Trace the
// caller already resolved) and validates the whole configuration.
func (q SimRequest) fill(opt sim.Options) (sim.Options, error) {
	opt.PageBytes = q.PageBytes
	opt.Instructions = q.Instructions
	opt.Warmup = q.Warmup
	var err error
	if q.Scheme != "" {
		if opt.Scheme, err = core.ParseScheme(q.Scheme); err != nil {
			return sim.Options{}, err
		}
	}
	opt.Style = cache.VIPT
	if q.Style != "" {
		if opt.Style, err = cache.ParseStyle(q.Style); err != nil {
			return sim.Options{}, err
		}
	}
	if q.ITLB != "" {
		if opt.ITLB, err = tlb.ParseSpec(q.ITLB); err != nil {
			return sim.Options{}, err
		}
	}
	if err := opt.Validate(); err != nil {
		return sim.Options{}, err
	}
	return opt, nil
}

// SimResponse is /v1/sim's reply: the canonical configuration key (the same
// content address the disk store files the result under) and the full
// result.
type SimResponse struct {
	Key    string     `json:"key"`
	Result sim.Result `json:"result"`
}

func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	var req SimRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	opt, err := s.resolveOptions(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The key reflects the options as the Runner normalizes them (its
	// -n/-warmup defaults applied) — the key the result is memoized and
	// filed on disk under, not a re-derivation from the raw request. They
	// are hashed once: the memo probe and the run take the resolved job.
	job := s.cfg.Runner.Job(opt)
	// Serve settled results without consuming a simulation slot, so a warm
	// daemon answers cached configurations instantly even while every slot
	// is busy with cold work.
	if res, ok := s.cfg.Runner.CachedJob(job); ok {
		writeJSON(w, http.StatusOK, SimResponse{Key: job.Key, Result: res})
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	if !s.acquire(ctx, w) {
		return
	}
	defer s.release()
	res, err := s.cfg.Runner.JobResult(ctx, job)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, SimResponse{Key: job.Key, Result: res})
}

// StatsResponse aggregates every counter the service keeps. Metrics is the
// full obs.Registry snapshot — the JSON twin of GET /metrics, histograms
// reduced to {count, sum, p50, p90, p99}.
type StatsResponse struct {
	UptimeSeconds float64           `json:"uptime_s"`
	Requests      int64             `json:"requests"`
	InFlight      int64             `json:"in_flight"`
	Batches       int64             `json:"batches"`
	BatchJobs     int64             `json:"batch_jobs"`
	SimWallSecs   float64           `json:"sim_wall_s"`
	Runner        exp.Stats         `json:"runner"`
	Store         *store.Stats      `json:"store,omitempty"`
	Traces        *trace.StoreStats `json:"traces,omitempty"`
	Metrics       map[string]any    `json:"metrics,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	rs := s.cfg.Runner.Stats()
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.met.requests.Value(),
		InFlight:      s.met.inFlight.Value(),
		Batches:       s.met.batches.Value(),
		BatchJobs:     s.met.batchJobs.Value(),
		SimWallSecs:   rs.SimWall.Seconds(),
		Runner:        rs,
		Metrics:       s.reg.Snapshot(),
	}
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		resp.Store = &st
	}
	if s.cfg.Traces != nil {
		ts := s.cfg.Traces.Stats()
		resp.Traces = &ts
	}
	writeJSON(w, http.StatusOK, resp)
}
