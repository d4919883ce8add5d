package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"itlbcfr/internal/exp"
	"itlbcfr/internal/sim"
)

// MaxBatchJobs bounds how many simulations one /v1/batch request may expand
// to: the paper's full evaluation is ~276 configurations, so the cap leaves
// an order of magnitude of headroom while keeping a single request from
// queueing unbounded work.
const MaxBatchJobs = 4096

// BatchRequest selects the simulations of one bulk request: an explicit list
// of configurations, a declaratively-expanded sweep, or both (the sweep's
// expansion is appended after the explicit list).
type BatchRequest struct {
	Sims  []SimRequest  `json:"sims,omitempty"`
	Sweep *SweepRequest `json:"sweep,omitempty"`
}

// SweepRequest is the wire form of an exp.Axes cross product: name each
// dimension the way the CLIs do and the server expands the product. Empty
// dimensions take the defaults (every benchmark, Base, VI-PT, the Table 1
// iTLB, 4KB pages); Instructions/Warmup apply to every expanded cell.
type SweepRequest struct {
	exp.AxesSpec
	Instructions uint64 `json:"instructions,omitempty"`
	Warmup       uint64 `json:"warmup,omitempty"`
}

// batchJobs expands the request into concrete simulation options,
// validating every configuration up front so a bad cell fails the whole
// request with 400 before any streaming begins. Bench names resolve
// through the server's registry, so explicit sims may reference stored
// traces (sweeps enumerate calibrated profiles only).
func (s *Server) batchJobs(q BatchRequest) ([]sim.Options, error) {
	var out []sim.Options
	for i, sr := range q.Sims {
		opt, err := s.resolveOptions(sr)
		if err != nil {
			return nil, fmt.Errorf("sims[%d]: %w", i, err)
		}
		out = append(out, opt)
	}
	if q.Sweep != nil {
		axes, err := q.Sweep.Axes()
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		for _, opt := range axes.Enumerate() {
			opt.Instructions = q.Sweep.Instructions
			opt.Warmup = q.Sweep.Warmup
			if err := opt.Validate(); err != nil {
				return nil, fmt.Errorf("sweep: %w", err)
			}
			out = append(out, opt)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty batch: provide sims and/or sweep")
	}
	return out, nil
}

// BatchRecord is one NDJSON line of a /v1/batch response. Records arrive in
// completion order; Index ties each back to its position in the expanded job
// list and Key is the canonical store key (the same content address /v1/sim
// reports and the disk store files under), so clients can dedupe and resume.
// RequestID repeats the stream's X-Request-ID on every line, so a record
// archived away from its HTTP envelope still names the request that
// produced it. Exactly one of Result and Error is set.
type BatchRecord struct {
	Index     int         `json:"index"`
	Key       string      `json:"key"`
	RequestID string      `json:"request_id,omitempty"`
	Bench     string      `json:"bench"`
	Scheme    string      `json:"scheme"`
	Style     string      `json:"style"`
	Cached    bool        `json:"cached,omitempty"`
	Result    *sim.Result `json:"result,omitempty"`
	Error     string      `json:"error,omitempty"`
}

// handleBatch streams one record per job as it completes. Concurrency is
// bounded by the same semaphore single /v1/sim requests use (a batch has no
// priority over them), settled results are served without consuming a slot,
// and a canceled stream — client disconnect or the per-request deadline —
// stops admitting new simulations while in-flight ones run to completion and
// still settle the shared memo for the next caller.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	jobs, err := s.batchJobs(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(jobs) > MaxBatchJobs {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch expands to %d simulations (limit %d)", len(jobs), MaxBatchJobs))
		return
	}
	s.met.batches.Inc()
	s.met.batchJobs.Add(int64(len(jobs)))

	ctx, cancel := s.requestContext(r)
	defer cancel()
	// ServeHTTP set the response's X-Request-ID before routing here; repeat
	// it on every streamed record.
	rid := w.Header().Get(requestIDHeader)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Batch-Jobs", strconv.Itoa(len(jobs)))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Every job index flows through idx to a bounded worker set; every job
	// produces exactly one record (after cancellation the remaining jobs
	// short-circuit to error records), so the writer below drains recs to
	// completion and no goroutine can block behind a gone client.
	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := range jobs {
			idx <- i
		}
	}()
	recs := make(chan BatchRecord)
	var wg sync.WaitGroup
	workers := min(len(jobs), cap(s.sem))
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				recs <- s.runBatchJob(ctx, rid, i, jobs[i])
			}
		}()
	}
	go func() {
		wg.Wait()
		close(recs)
	}()

	enc := json.NewEncoder(w)
	var writeErr error
	for rec := range recs {
		if writeErr != nil {
			continue // client is gone; keep draining so the workers exit
		}
		if writeErr = enc.Encode(rec); writeErr == nil && flusher != nil {
			flusher.Flush()
		}
	}
}

// runBatchJob resolves one job: memo/disk hits cost no simulation slot,
// everything else waits for a slot under the stream's context.
func (s *Server) runBatchJob(ctx context.Context, rid string, i int, opt sim.Options) BatchRecord {
	job := s.cfg.Runner.Job(opt)
	rec := BatchRecord{
		Index:     i,
		Key:       job.Key,
		RequestID: rid,
		Bench:     opt.BenchName(),
		Scheme:    opt.Scheme.String(),
		Style:     opt.Style.String(),
	}
	if res, ok := s.cfg.Runner.CachedJob(job); ok {
		rec.Cached, rec.Result = true, &res
		return rec
	}
	if err := s.acquireSlot(ctx); err != nil {
		rec.Error = fmt.Sprintf("no simulation slot: %v", err)
		return rec
	}
	defer s.release()
	res, err := s.cfg.Runner.JobResult(ctx, job)
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	rec.Result = &res
	return rec
}
