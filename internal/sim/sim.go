// Package sim wires the substrates into complete simulations: Table 1's
// default machine, per-run construction (benchmark → compiler → executor →
// CFR engine → pipeline), warm-up handling and energy roll-up.
package sim

import (
	"fmt"
	"io"
	"time"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/bpred"
	"itlbcfr/internal/cache"
	"itlbcfr/internal/compiler"
	"itlbcfr/internal/core"
	"itlbcfr/internal/energy"
	"itlbcfr/internal/pipeline"
	"itlbcfr/internal/program"
	"itlbcfr/internal/tlb"
	"itlbcfr/internal/trace"
	"itlbcfr/internal/vm"
	"itlbcfr/internal/workload"
)

// DefaultInstructions is the default simulation length (committed, non-stub
// instructions). The paper runs 250M; the default here keeps a full table
// regeneration in the tens of seconds. Energies scale linearly with length.
const DefaultInstructions = 2_000_000

// DefaultWarmup is how many instructions run before statistics reset, so
// cold caches and predictors do not distort the measured window (the paper
// skips 1B instructions for the same reason).
const DefaultWarmup = 300_000

// DefaultPipeline returns the paper's Table 1 machine.
func DefaultPipeline() pipeline.Config {
	return pipeline.Config{
		FetchWidth:  4,
		IssueWidth:  4,
		CommitWidth: 4,
		RUUSize:     64,
		LSQSize:     32,
		IL1Style:    cache.VIPT,
		IL1:         cache.Config{SizeBytes: 8 << 10, BlockBytes: 32, Assoc: 1, LatencyCycles: 1},
		DL1:         cache.Config{SizeBytes: 8 << 10, BlockBytes: 32, Assoc: 2, LatencyCycles: 1, WriteBack: true},
		L2:          cache.Config{SizeBytes: 1 << 20, BlockBytes: 128, Assoc: 2, LatencyCycles: 10},
		DRAMLatency: 100,
		DTLB:        tlb.Mono(128, 128),
		Bpred:       bpred.Default,
		MLPFactor:   0.35,
	}
}

// DefaultITLB is Table 1's iTLB: 32 entries, fully associative, 50-cycle
// miss penalty.
func DefaultITLB() tlb.Config { return tlb.Mono(32, 32) }

// TraceRef names a stored instruction trace as a simulation's workload,
// replacing the synthetic profile. Key is the trace's content address in
// the trace store — the only part of the reference that identifies the
// simulation (it folds into the canonical store key). Open streams the
// canonical binary bytes; replay construction calls it twice (footprint
// reconstruction, then the replay itself), so it must return a fresh
// reader each time.
type TraceRef struct {
	Key  string                        `json:"key"`
	Open func() (io.ReadCloser, error) `json:"-"`
}

// Bench returns the canonical workload name of the trace, stable across
// any registered aliases so one trace caches under one identity.
func (t *TraceRef) Bench() string { return "trace:" + t.Key }

// Options selects one simulation.
type Options struct {
	Profile workload.Profile
	Scheme  core.Scheme
	Style   cache.Style
	ITLB    tlb.Config

	// Trace, when non-nil, makes a stored trace the workload; Profile is
	// ignored (and zeroed by Canonical).
	Trace *TraceRef

	// Instructions and Warmup default to the package constants when zero.
	Instructions uint64
	Warmup       uint64

	// PageBytes overrides the 4KB page size (must be a power of two).
	PageBytes uint64

	// Pipeline overrides the Table 1 machine when non-nil.
	Pipeline *pipeline.Config

	// Tech overrides the 0.1 µm energy technology point when non-nil.
	Tech *energy.Tech
}

// Timing is one run's wall-clock phase breakdown — how long the simulator
// itself took, not a simulated quantity. It rides along in Result so every
// caller (CLI, batch stream, disk store) can see where host time went
// without re-running anything.
type Timing struct {
	// SetupSeconds covers workload generation, compilation and machine
	// construction.
	SetupSeconds float64 `json:"setup_s"`
	// WarmupSeconds and MeasureSeconds are the two machine.Run phases.
	WarmupSeconds  float64 `json:"warmup_s"`
	MeasureSeconds float64 `json:"measure_s"`
	// InstPerSec is committed instructions per wall second of the measure
	// phase — the simulator's own throughput.
	InstPerSec float64 `json:"inst_per_s"`
}

// TotalSeconds is the full wall cost of the run.
func (t Timing) TotalSeconds() float64 {
	return t.SetupSeconds + t.WarmupSeconds + t.MeasureSeconds
}

// Result bundles the pipeline outcome with identification. It round-trips
// losslessly through JSON (the disk-backed result store and the HTTP API
// both depend on that): every field is exported, the embedded pipeline
// fields inline under their own names, and Scheme/Style marshal as names
// rather than ordinals.
type Result struct {
	pipeline.Result
	Bench  string      `json:"bench"`
	Scheme core.Scheme `json:"scheme"`
	Style  cache.Style `json:"style"`
	Timing Timing      `json:"timing"`
}

// Canonical fills every defaulted field of o with its explicit value, so
// that two spellings of the same simulation — zero vs. 4096-byte pages, an
// empty vs. the explicit Table 1 iTLB, a nil vs. the explicit default
// pipeline or technology point — become one configuration. It is the only
// place the simulation defaults are resolved: building, validation, the
// warm key and the result store's key all start from it. The input is not
// mutated (the pipeline override is copied).
func (o Options) Canonical() Options {
	if o.Instructions == 0 {
		o.Instructions = DefaultInstructions
	}
	if o.Warmup == 0 {
		o.Warmup = DefaultWarmup
	}
	if len(o.ITLB.Levels) == 0 {
		o.ITLB = DefaultITLB()
	}
	if o.PageBytes == 0 {
		o.PageBytes = addr.DefaultGeometry.PageBytes()
	}
	pcfg := DefaultPipeline()
	if o.Pipeline != nil {
		pcfg = *o.Pipeline
	}
	// The simulated iL1 always takes Options.Style, so two configs
	// differing only in the pipeline's own iL1 style are the same
	// simulation.
	pcfg.IL1Style = o.Style
	o.Pipeline = &pcfg
	if o.Tech == nil {
		t := energy.DefaultTech
		o.Tech = &t
	}
	if o.Trace != nil {
		// A trace IS the workload: its content address alone identifies it.
		// Whatever profile a caller left set cannot perturb any key, and
		// every alias of one trace shares one cached result.
		o.Profile = workload.Profile{}
	}
	return o
}

// Validate checks the options without running anything: page geometry,
// workload profile, scheme/style, the iTLB configuration and the pipeline,
// all after Canonical. Run performs exactly these checks; the result store
// and the HTTP API validate through the same path so a configuration is
// rejected identically everywhere.
func (o Options) Validate() error {
	o = o.Canonical()
	if _, err := addr.NewGeometry(o.PageBytes); err != nil {
		return err
	}
	if o.Trace != nil {
		if o.Trace.Key == "" {
			return fmt.Errorf("sim: trace reference has no key")
		}
	} else if err := o.Profile.Validate(); err != nil {
		return err
	}
	if !o.Scheme.Known() {
		return fmt.Errorf("sim: unknown scheme %d", int(o.Scheme))
	}
	if !o.Style.Known() {
		return fmt.Errorf("sim: unknown style %d", int(o.Style))
	}
	if err := o.ITLB.Validate(); err != nil {
		return fmt.Errorf("sim: iTLB config: %w", err)
	}
	return o.Pipeline.Validate()
}

// BenchName returns the workload identity results carry: the profile name,
// or the trace's canonical "trace:<key>" name.
func (o Options) BenchName() string {
	if o.Trace != nil {
		return o.Trace.Bench()
	}
	return o.Profile.Name
}

// built is one fully constructed simulation, positioned at instruction
// zero, cold. It is the unit the warm-state pool operates on: runWarm
// advances it to the measured window the slow way, checkpoint captures that
// window's complete state, and restore teleports an equivalent cold build
// straight there.
type built struct {
	n, warm uint64

	machine *pipeline.Machine
	engine  *core.Engine
	itlb    *tlb.TLB
	space   *vm.AddressSpace
	meter   *energy.Meter

	closer io.Closer // trace replay stream, nil for synthetic workloads
	setup  float64   // construction wall seconds
}

// build constructs the full simulation stack for opt (already validated):
// workload, compiler, CFR engine, energy meter and pipeline.
func build(opt Options) (*built, error) {
	setupStart := time.Now()

	opt = opt.Canonical()
	b := &built{n: opt.Instructions, warm: opt.Warmup}
	geom, err := addr.NewGeometry(opt.PageBytes)
	if err != nil {
		return nil, err
	}

	// The workload is either a generated synthetic image walked by the
	// executor, or a stored trace replayed through a reconstructed image —
	// both feed the pipeline through the same program.Source contract, so
	// every scheme, style and the energy model apply unchanged.
	var compiled *program.Image
	var src program.Source
	if opt.Trace != nil {
		if opt.Trace.Open == nil {
			return nil, fmt.Errorf("sim: trace %s is not openable here (no stream attached)", opt.Trace.Key)
		}
		rep, err := trace.NewReplay(opt.Trace.Open, opt.Trace.Key, geom, opt.Scheme.NeedsStubs())
		if err != nil {
			return nil, err
		}
		b.closer = rep
		compiled = rep.Image()
		src = rep
	} else {
		img, err := workload.Generate(opt.Profile)
		if err != nil {
			return nil, err
		}
		img.Geom = geom
		c, _, err := compiler.Compile(img, compiler.Options{
			InsertBoundaryStubs: opt.Scheme.NeedsStubs(),
		})
		if err != nil {
			return nil, err
		}
		compiled = c
		src = program.NewExecutor(compiled, opt.Profile.Seed^0xC0FFEE, opt.Profile.DataStreams())
	}

	b.space = vm.New(geom, 1)
	b.itlb = tlb.New(opt.ITLB)
	b.meter = energy.NewMeter(energy.NewModel(*opt.Tech), opt.ITLB.EntriesPerLevel(), opt.ITLB.AssocPerLevel())
	b.itlb.AttachMeter(b.meter)
	b.engine = core.NewEngine(opt.Scheme, opt.Style, geom, b.itlb, b.space, b.meter)

	m, err := pipeline.New(*opt.Pipeline, compiled, src, b.engine, b.space)
	if err != nil {
		if b.closer != nil {
			b.closer.Close()
		}
		return nil, err
	}
	b.machine = m
	b.setup = time.Since(setupStart).Seconds()
	return b, nil
}

// runWarm executes the warm-up phase and resets every statistic, leaving
// the simulation at the start of its measured window.
func (b *built) runWarm() {
	b.machine.Run(b.warm)
	b.machine.ResetStats()
	b.meter.Reset()
	b.itlb.ResetStats()
}

// checkpoint captures the complete post-warm-up state — machine, engine,
// iTLB and address space; the meter is zero at this point by construction
// and needs no capture. Returns nil when the correct-path source cannot be
// snapshotted.
func (b *built) checkpoint() *warmState {
	mst, ok := b.machine.Checkpoint()
	if !ok {
		return nil
	}
	return &warmState{
		machine: mst,
		engine:  b.engine.Checkpoint(),
		itlb:    b.itlb.Snapshot(),
		space:   b.space.Snapshot(),
	}
}

// restore teleports a cold build to a pooled post-warm-up state. The build
// must have been constructed from options with an equal warm key.
func (b *built) restore(ws *warmState) error {
	b.space.Restore(ws.space)
	if err := b.itlb.Restore(ws.itlb); err != nil {
		return fmt.Errorf("sim: iTLB: %w", err)
	}
	b.engine.Restore(ws.engine)
	return b.machine.Restore(ws.machine)
}

// Run builds and executes one simulation.
func Run(opt Options) (Result, error) { return RunWith(opt, nil) }

// RunWith is Run with a warm-state pool: when pool is non-nil and another
// simulation with the same warm key (see WarmPool) has already run its
// warm-up, this one forks the pooled post-warm-up state instead of
// re-executing the warm-up — byte-identical results, a fraction of the
// time. A nil pool makes RunWith exactly Run.
func RunWith(opt Options, pool *WarmPool) (Result, error) {
	if err := opt.Validate(); err != nil {
		return Result{}, err
	}
	b, err := build(opt)
	if err != nil {
		return Result{}, err
	}
	if b.closer != nil {
		defer b.closer.Close()
	}

	timing := Timing{SetupSeconds: b.setup}
	warmStart := time.Now()
	if pool != nil {
		err = pool.warmup(opt, b)
	} else {
		b.runWarm()
	}
	if err != nil {
		return Result{}, err
	}
	timing.WarmupSeconds = time.Since(warmStart).Seconds()
	res := b.machine.Run(b.n)
	timing.MeasureSeconds = res.WallSeconds
	timing.InstPerSec = res.InstPerSec()
	b.meter.AddStubs(res.Stubs)
	res.EnergyMJ = b.meter.TotalMJ()
	res.ITLB = b.itlb.Stats()

	if res.Engine.StaleUses != 0 {
		return Result{}, fmt.Errorf("sim: %d stale CFR uses on the correct path (%s/%s/%s): translation contract violated",
			res.Engine.StaleUses, opt.BenchName(), opt.Scheme, opt.Style)
	}
	return Result{Result: res, Bench: opt.BenchName(), Scheme: opt.Scheme,
		Style: opt.Style, Timing: timing}, nil
}

// MustRun is Run for known-good options.
func MustRun(opt Options) Result {
	r, err := Run(opt)
	if err != nil {
		panic(err)
	}
	return r
}
