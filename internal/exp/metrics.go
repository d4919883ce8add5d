package exp

import (
	"itlbcfr/internal/obs"
)

// Stage labels for Metrics.Stage, one per step a Runner lookup can take.
const (
	StageMemoLookup   = "memo_lookup"   // memo map claim/lookup (incl. lock wait)
	StageBackingRead  = "backing_read"  // disk-store Get on a memo miss
	StageSimRun       = "sim_run"       // full sim.Run wall (setup+warm-up+measure)
	StageBackingWrite = "backing_write" // disk-store Put after a fresh simulation
)

// Metrics instruments a Runner with internal/obs primitives: hit/miss/
// coalesce counters and a per-stage latency histogram family. Construct
// with NewMetrics — against a Registry to export the series over /metrics,
// or against nil for self-contained counting (the Runner does this lazily,
// so the zero-value Runner keeps working). Every Stats() snapshot is read
// from these metrics; there is no second set of books.
type Metrics struct {
	Runs        *obs.Counter // simulations executed by this process
	MemoHits    *obs.Counter // lookups served by the in-memory memo
	BackingHits *obs.Counter // memo misses satisfied by the backing store
	Coalesced   *obs.Counter // lookups that joined an in-flight simulation
	PutErrors   *obs.Counter // failed backing writes (dropped, not fatal)
	InFlight    *obs.Gauge   // claimed configurations not yet settled

	// The fast-path coverage counts, summed over the simulations this
	// process executed (sim.Timing): committed instructions and wrong-path
	// fetches in the measured windows, and how many of each the pipeline
	// retired in plain stretches. They depend on the workload, not the host.
	Committed     *obs.Counter
	BulkCommitted *obs.Counter
	WrongPath     *obs.Counter
	BulkWrongPath *obs.Counter

	// Stage times every step of a lookup, labeled by the Stage* constants.
	Stage *obs.HistogramVec

	memoLookup, backingRead, simRun, backingWrite *obs.Histogram
}

// NewMetrics registers a Runner's metric set under itlb_runner_* names
// (reg == nil: unregistered but functional).
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{
		Runs:        reg.Counter("itlb_runner_runs_total", "simulations executed by this process"),
		MemoHits:    reg.Counter("itlb_runner_memo_hits_total", "lookups served by the in-memory memo"),
		BackingHits: reg.Counter("itlb_runner_backing_hits_total", "memo misses satisfied by the backing store"),
		Coalesced:   reg.Counter("itlb_runner_coalesced_total", "lookups that joined an in-flight simulation"),
		PutErrors:   reg.Counter("itlb_runner_put_errors_total", "failed backing-store writes (dropped)"),
		InFlight:    reg.Gauge("itlb_runner_in_flight", "claimed configurations not yet settled"),
		Committed: reg.Counter("itlb_sim_committed_total",
			"committed instructions measured by executed simulations"),
		BulkCommitted: reg.Counter("itlb_sim_bulk_committed_total",
			"measured committed instructions the pipeline retired in plain stretches"),
		WrongPath: reg.Counter("itlb_sim_wrong_path_fetches_total",
			"wrong-path fetches measured by executed simulations"),
		BulkWrongPath: reg.Counter("itlb_sim_bulk_wrong_path_total",
			"measured wrong-path fetches the pipeline retired in plain stretches"),
		Stage: reg.HistogramVec("itlb_runner_stage_seconds",
			"wall seconds per lookup stage", obs.WideBuckets, "stage"),
	}
	m.memoLookup = m.Stage.With(StageMemoLookup)
	m.backingRead = m.Stage.With(StageBackingRead)
	m.simRun = m.Stage.With(StageSimRun)
	m.backingWrite = m.Stage.With(StageBackingWrite)
	return m
}
