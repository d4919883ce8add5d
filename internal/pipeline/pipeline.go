// Package pipeline is the cycle-level machine model: a detailed front end
// (fetch groups, iL1 lookups under all three addressing styles, the CFR
// translation engine, branch prediction with speculative wrong-path fetch,
// iTLB walk stalls) over a bandwidth/occupancy back end (issue and commit
// width, RUU run-ahead slack, dL1/dTLB/L2/DRAM latencies).
//
// Everything the paper measures lives in the front end, which this model
// simulates instruction by instruction, including the wrong paths fetched
// during the 7 cycles between a misprediction and its resolution — those
// fetches consume iTLB/CFR energy and pollute the iTLB and iL1, exactly the
// effects that separate the paper's schemes on small TLB configurations.
// The back end abstracts the out-of-order core as two clocks:
//
//	frontCycle — when the current fetch group completes (stalls from iL1
//	             misses, page walks, PI-PT serialization, redirects);
//	backCycle  — when the core has consumed everything delivered so far
//	             (issue bandwidth plus exposed memory latency).
//
// The front end may run ahead of the back end by at most the RUU's worth of
// cycles; total execution time is the later of the two clocks. This is the
// "timing model" substitution documented in DESIGN.md: absolute CPI differs
// from sim-outorder, front-end-driven deltas (the paper's subject) are
// modelled directly.
package pipeline

import (
	"fmt"
	"math/bits"
	"time"
	"unsafe"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/bpred"
	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/isa"
	"itlbcfr/internal/program"
	"itlbcfr/internal/tlb"
	"itlbcfr/internal/vm"
)

// Config sizes the machine (Table 1 of the paper).
type Config struct {
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	RUUSize     int
	LSQSize     int

	IL1Style    cache.Style
	IL1         cache.Config
	DL1         cache.Config
	L2          cache.Config
	DRAMLatency int

	DTLB  tlb.Config
	Bpred bpred.Config

	// MLPFactor is the fraction of data-miss latency exposed to the back
	// end (memory-level parallelism hides the rest).
	MLPFactor float64

	// DataCFR enables the paper's future-work extension (§5): a Current
	// Frame Register on the data side, compared HoA-style against every
	// load/store page so dTLB lookups are skipped while data references
	// stay within the current data page.
	DataCFR bool

	// ContextSwitchEvery injects a context switch every N committed
	// instructions over the machine's lifetime — warm-up included; the
	// cadence does not restart at ResetStats (0 = never). Both TLBs flush,
	// the CFR is saved and restored per §3.2, and the pipeline drains (one
	// redirect penalty).
	ContextSwitchEvery uint64

	// RemapEvery injects OS page-remap pressure every N committed
	// instructions over the machine's lifetime, on the same lifetime counter
	// as ContextSwitchEvery (0 = never): a rotating code page is migrated to
	// a new frame, exercising the §3.2 invalidation contract (pinned pages
	// are skipped, exactly as the OS defers moving the CFR-resident page).
	RemapEvery uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.FetchWidth < 1 || c.IssueWidth < 1 || c.CommitWidth < 1 {
		return fmt.Errorf("pipeline: non-positive widths")
	}
	if c.RUUSize < c.IssueWidth {
		return fmt.Errorf("pipeline: RUU smaller than issue width")
	}
	for _, cc := range []cache.Config{c.IL1, c.DL1, c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if err := c.DTLB.Validate(); err != nil {
		return err
	}
	if err := c.Bpred.Validate(); err != nil {
		return err
	}
	if !(c.MLPFactor >= 0 && c.MLPFactor <= 1) { // also rejects NaN
		return fmt.Errorf("pipeline: MLPFactor %v outside [0,1]", c.MLPFactor)
	}
	return nil
}

// Result is one simulation's outcome.
type Result struct {
	Committed uint64 // non-stub instructions executed
	Stubs     uint64 // BOUNDARY stub instructions executed
	Cycles    uint64

	// Front-end structures.
	IL1  cache.Stats
	L2   cache.Stats
	DL1  cache.Stats
	DTLB tlb.Stats

	// Paper accounting.
	Engine           core.Stats
	ITLB             tlb.Stats
	EnergyMJ         float64 // iTLB + CFR energy, millijoules
	Bpred            bpred.Stats
	WrongPathFetches uint64

	// Correct-path page crossings (Table 2).
	CrossBoundary uint64
	CrossBranch   uint64

	// Correct-path dynamic branch statistics (Table 4).
	DynBranches     uint64
	DynAnalyzable   uint64
	DynInPage       uint64 // analyzable with the in-page bit
	DynCrossingBits uint64 // analyzable without the in-page bit

	// Data-side CFR extension (§5 future work).
	DCFRHits    uint64 // dTLB lookups avoided by the data CFR
	DCFRLookups uint64 // dTLB lookups that refilled the data CFR

	// OS-pressure injection (§3.2 contract).
	ContextSwitches uint64
	Remaps          uint64
	RemapsDeferred  uint64 // remaps refused because the page was pinned

	// WallSeconds is the host wall-clock time the producing Run call took —
	// a phase timer for observability, not a simulated quantity. ResetStats
	// zeroes it with the rest of the statistics.
	WallSeconds float64
}

// PathStats counts which code path did the simulator's work: how much of
// it the plain stretches retired. They describe the simulator, not the
// simulated machine, so they stay out of Result, whose every field is the
// same on the scalar slots and the stretches; ResetStats zeroes them with
// it.
type PathStats struct {
	BulkCommitted uint64 // correct-path instructions retired by commitStretch
	BulkWrongPath uint64 // wrong-path fetches retired by wrongStretch
}

// InstPerSec returns the simulator's own throughput for the producing Run
// call: committed instructions per host wall second.
func (r Result) InstPerSec() float64 {
	if r.WallSeconds <= 0 {
		return 0
	}
	return float64(r.Committed) / r.WallSeconds
}

// IL1MissRate returns the instruction-cache miss rate over fetch accesses.
func (r Result) IL1MissRate() float64 {
	if r.IL1.Accesses == 0 {
		return 0
	}
	return float64(r.IL1.Misses) / float64(r.IL1.Accesses)
}

// IPC returns committed instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// stepBufLen sizes the correct-path step read-ahead buffer used with
// program.Batcher sources: large enough to amortize the batched-call and
// pre-refill snapshot overhead, small enough that a checkpoint replays it
// instantly.
const stepBufLen = 256

// Machine wires one benchmark image to one scheme/style configuration.
type Machine struct {
	cfg    Config
	geom   addr.Geometry
	img    *program.Image
	ex     program.Source
	engine *core.Engine
	space  *vm.AddressSpace
	il1    *cache.Cache
	dl1    *cache.Cache
	l2     *cache.Cache
	dtlb   *tlb.TLB
	pred   *bpred.Predictor

	// Hot-path precomputation: every value below is fixed at construction
	// and replaces a per-instruction switch, division, field chain or method
	// call.
	eager         bool                    // IL1Style is VIPT or PIPT (translate at fetch)
	pipt          bool                    // IL1Style is PIPT
	bulkCommit    bool                    // batched source and no OS-pressure cadence: commitStretch may run
	hasDataCFR    bool                    // cfg.DataCFR (§5 extension enabled)
	il1BlockShift uint                    // log2(IL1.BlockBytes)
	invWidth      float64                 // 1 / min(IssueWidth, CommitWidth)
	l2Latency     int                     // cfg.L2.LatencyCycles
	dramLatency   int                     // cfg.DRAMLatency
	mlp           float64                 // cfg.MLPFactor
	walkFn        func(vpn uint64) uint64 // bound m.space.Walk (avoids a per-miss closure)

	// Correct-path step read-ahead. When the source is a program.Batcher,
	// steps are pulled stepBufLen at a time into stepBuf and consumed from
	// stepPos; srcState holds the source's position captured just before the
	// last refill, which is what makes the read-ahead checkpointable.
	batcher  program.Batcher
	snap     program.Snapshotter
	stepBuf  []program.Step
	stepPos  int
	srcState program.SourceState
	one      program.Step // return slot for unbatched sources

	frontCycle uint64
	backCycle  float64
	cycleBase  uint64 // clock values at the last ResetStats
	backBase   float64
	slack      float64 // RUU run-ahead in cycles

	// Data-side CFR (future-work extension).
	dcfrVPN   uint64
	dcfrPFN   uint64
	dcfrValid bool

	fetchPC    addr.VAddr
	runTarget  uint64 // commit count at which the current Run stops
	sequential bool   // next fetch follows the previous without redirect
	lastBlock  uint64
	haveBlock  bool

	// totalCommitted and totalRemaps count over the machine's whole
	// lifetime, unlike their res counterparts which ResetStats zeroes at the
	// warm-up boundary. The periodic OS-pressure events key off these so
	// their cadence — and the remap page rotation — is a property of the
	// run, not of where the measurement phase starts.
	totalCommitted uint64
	totalRemaps    uint64

	res   Result
	paths PathStats
}

// New builds a machine. The engine must have been constructed over the same
// address space and geometry, and ex must walk the correct path of img
// (program.NewExecutor for synthetic workloads, a trace replay source for
// captured ones).
func New(cfg Config, img *program.Image, ex program.Source,
	engine *core.Engine, space *vm.AddressSpace) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:    cfg,
		geom:   img.Geom,
		img:    img,
		ex:     ex,
		engine: engine,
		space:  space,
		il1:    cache.New(cfg.IL1),
		dl1:    cache.New(cfg.DL1),
		l2:     cache.New(cfg.L2),
		dtlb:   tlb.New(cfg.DTLB),
		pred:   bpred.New(cfg.Bpred),
		slack:  float64(cfg.RUUSize) / float64(cfg.IssueWidth),
	}
	m.eager = cfg.IL1Style == cache.VIPT || cfg.IL1Style == cache.PIPT
	m.pipt = cfg.IL1Style == cache.PIPT
	m.hasDataCFR = cfg.DataCFR
	m.il1BlockShift = uint(bits.TrailingZeros64(uint64(cfg.IL1.BlockBytes)))
	width := cfg.IssueWidth
	if cfg.CommitWidth < width {
		width = cfg.CommitWidth
	}
	m.invWidth = 1 / float64(width)
	m.l2Latency = cfg.L2.LatencyCycles
	m.dramLatency = cfg.DRAMLatency
	m.mlp = cfg.MLPFactor
	m.walkFn = space.Walk
	if b, ok := ex.(program.Batcher); ok {
		m.batcher = b
		m.stepBuf = make([]program.Step, stepBufLen)
		m.stepPos = stepBufLen // empty: first nextStep refills
		m.bulkCommit = cfg.ContextSwitchEvery == 0 && cfg.RemapEvery == 0
	}
	m.snap, _ = ex.(program.Snapshotter)
	m.fetchPC = img.Entry
	m.sequential = true
	// A remap shoots down the page's dTLB entry and, if it is the resident
	// page, the data CFR, mirroring the instruction-side contract (§3.2).
	space.OnInvalidate(func(vpn uint64) {
		m.dtlb.Invalidate(vpn)
		if m.dcfrValid && m.dcfrVPN == vpn {
			m.dcfrValid = false
		}
	})
	return m, nil
}

// physAccess probes a physically-indexed, physically-tagged cache: the dL1
// and the unified L2 always, and (via explicit call sites in fetch) the iL1
// under PI-PT. Index and tag both derive from the same physical address —
// the PIPT index==tag invariant — so this helper is the single place that
// spells cache.Access(pa, pa, ...); routing every physical probe through it
// keeps the invariant from silently drifting if the per-structure addressing
// styles ever diverge.
func physAccess(c *cache.Cache, pa addr.PAddr, write bool) cache.Result {
	return c.Access(uint64(pa), uint64(pa), write)
}

// ResetStats discards all statistics gathered so far (warm-up) while keeping
// microarchitectural state — cache/TLB/predictor contents, the CFR and the
// clocks — intact. The periodic OS-pressure cadences (ContextSwitchEvery,
// RemapEvery) are keyed to the lifetime commit counter and deliberately do
// not restart here: resetting statistics must not move injected events.
func (m *Machine) ResetStats() {
	m.res = Result{}
	m.paths = PathStats{}
	m.cycleBase = m.frontCycle
	m.backBase = m.backCycle
	m.il1.ResetStats()
	m.dl1.ResetStats()
	m.l2.ResetStats()
	m.dtlb.ResetStats()
	m.pred.ResetStats()
	m.engine.ResetStats()
}

// Run executes until n non-stub instructions have committed (beyond any
// prior calls) and returns the accumulated result.
func (m *Machine) Run(n uint64) Result {
	t0 := time.Now()
	m.runTarget = n
	for m.res.Committed < n {
		m.stepGroup()
	}
	m.res.WallSeconds += time.Since(t0).Seconds()
	m.res.Cycles = m.frontCycle - m.cycleBase
	if b := uint64(m.backCycle - m.backBase); b > m.res.Cycles {
		m.res.Cycles = b
	}
	m.res.Engine = m.engine.Stats()
	m.res.Bpred = m.pred.Stats()
	m.res.IL1 = m.il1.Stats()
	m.res.L2 = m.l2.Stats()
	m.res.DL1 = m.dl1.Stats()
	m.res.DTLB = m.dtlb.Stats()
	return m.res
}

// PathStats returns the fast-path coverage counters since the last
// ResetStats.
func (m *Machine) PathStats() PathStats { return m.paths }

// fetchInst performs the front-end work for fetching one instruction at pc:
// translation per the engine/style and the iL1 (and L2/DRAM) accesses.
// It returns the stall cycles charged to this fetch group and whether the
// eager styles' fetch-time translation consulted the iTLB (what PI-PT
// serializes on; the lazy style's miss-time lookups are charged as stall).
func (m *Machine) fetchInst(pc addr.VAddr, wrongPath bool) (stall int, usedTLB bool) {
	pfn, stall, usedTLB := m.engine.Fetch(pc, 1, m.sequential, wrongPath)
	// One iL1 probe per block touched.
	if blk := uint64(pc) >> m.il1BlockShift; !m.haveBlock || blk != m.lastBlock {
		m.lastBlock, m.haveBlock = blk, true
		stall += m.blockFill(pc, pfn, wrongPath)
	}
	return stall, usedTLB
}

// nextStep returns the next correct-path step. Batcher sources are pulled
// stepBufLen steps at a time; srcState captures the source's position just
// before each refill so Checkpoint can reproduce the read-ahead exactly.
func (m *Machine) nextStep() *program.Step {
	if m.batcher == nil {
		m.one = m.ex.Step()
		return &m.one
	}
	if m.stepPos == stepBufLen {
		m.refill()
	}
	s := &m.stepBuf[m.stepPos]
	m.stepPos++
	return s
}

// refill pulls the next stepBufLen steps into the empty read-ahead buffer.
func (m *Machine) refill() {
	if m.snap != nil {
		m.srcState = m.snap.SnapshotState()
	}
	m.batcher.StepN(m.stepBuf)
	m.stepPos = 0
}

// chargeGroup closes one fetch group on the front-end clock: the base cycle,
// the group's accumulated stalls, and — under PI-PT — the serialized
// translation cycle when the group consulted the iTLB (always, under the
// Base scheme, which has no CFR to concatenate from). Every group that
// fetched instructions must be charged through here, whether it ended
// normally, on a redirect, or on a misprediction (§2, Table 8).
func (m *Machine) chargeGroup(groupStall int, groupUsedTLB bool) {
	m.frontCycle += uint64(1 + groupStall)
	if m.pipt && groupUsedTLB {
		m.frontCycle++
	}
	m.syncBackend()
}

// stepGroup fetches and executes one correct-path fetch group. Each slot
// first offers the plain stretch that starts there to commitStretch; a CTI
// or a stub runs the scalar slot below, and the next slot tries again.
func (m *Machine) stepGroup() {
	groupStall := 0
	groupUsedTLB := false
	w := m.cfg.FetchWidth
	for slot := 0; slot < w; slot++ {
		if m.res.Committed >= m.runTarget {
			break
		}
		// The Plain test up front keeps the call off CTI slots.
		if m.bulkCommit && (m.stepPos == stepBufLen || m.stepBuf[m.stepPos].Plain) {
			if n, st, used := m.commitStretch(w - slot); n > 0 {
				groupStall += st
				groupUsedTLB = groupUsedTLB || used
				slot += n - 1
				continue
			}
		}
		pc := m.fetchPC
		s := m.nextStep()
		if s.PC != pc {
			panic(fmt.Sprintf("pipeline: fetch desynchronized: fetch %#x, oracle %#x",
				uint64(pc), uint64(s.PC)))
		}
		st, used := m.fetchInst(pc, false)
		groupStall += st
		groupUsedTLB = groupUsedTLB || used
		m.sequential = true

		m.accountCommit(s)

		if !s.Inst.Kind.IsCTI() {
			m.fetchPC = s.Next
			continue
		}

		// Branch machinery.
		pred := m.pred.Predict(pc, s.Inst.Kind)
		ck := m.engine.Checkpoint()
		groupStall += m.engine.OnCTIPredicted(s.Inst, pred)
		tookLookup := m.engine.TookLookupAtPred()
		correct := m.pred.Resolve(pc, s.Inst.Kind, pred, s.Taken, s.Next)

		if correct {
			m.fetchPC = s.Next
			if s.Taken {
				// Predicted-taken redirect ends the group.
				m.sequential = false
				break
			}
			continue
		}

		// Misprediction: finish this group — including its PI-PT
		// serialization cycle, which this group incurred like any other —
		// fetch down the wrong path for the redirect penalty, then squash
		// and restart at the real target.
		m.chargeGroup(groupStall, groupUsedTLB)
		wrongPC := pc + addr.InstBytes
		if pred.Taken {
			wrongPC = pred.Target
		}
		m.runWrongPath(wrongPC, uint64(m.cfg.Bpred.MispredictPenalty))
		m.engine.Restore(ck)
		m.frontCycle += uint64(m.engine.OnCTIResolved(s.Inst, s.Taken, s.Next, tookLookup))
		m.fetchPC = s.Next
		m.sequential = false
		m.haveBlock = false
		return
	}

	m.chargeGroup(groupStall, groupUsedTLB)
}

// instsToPageEnd returns how many instruction slots lie from pc to the end
// of its page, pc's own included.
func (m *Machine) instsToPageEnd(pc addr.VAddr) int {
	return int((m.geom.PageBytes() - m.geom.Offset(pc)) / addr.InstBytes)
}

// commitStretch retires the plain stretch of buffered correct-path steps
// that starts at the current slot: the longest run of sequential non-CTI,
// non-stub steps, bounded by room (the group's remaining slots), by the step
// buffer, by the Run target and by the page. It qualifies on the steps' own
// Plain bits, never the image's: a trace's wrap step is a synthetic jump at
// a PC whose image instruction may be plain.
//
// Such a stretch cannot redirect, cross a page or touch the predictor, and
// (with the periodic OS-pressure events disabled) nothing else touches the
// iTLB or the CFR while it retires, so its per-fetch engine work is one
// Fetch call, whose only possible lookup falls on the first fetch. What
// remains per slot is the iL1 block fill and the back-end accounting,
// bit-identical to the scalar slots; the lazy VI-VT style still routes iL1
// misses through the ordinary OnIL1Miss event in program order. It returns
// the stretch's length, its stall cycles and whether it consulted the iTLB;
// n = 0 means nothing changed and the slot runs scalar.
func (m *Machine) commitStretch(room int) (n, stall int, usedTLB bool) {
	if m.stepPos == stepBufLen {
		m.refill()
	}
	buf := m.stepBuf[m.stepPos:]
	// The Source contract pins each step's PC to the previous step's Next
	// and every plain step's Next to PC+InstBytes, so a plain stretch
	// starting at pc is sequential, and every successor stays in pc's page
	// (no crossing statistic to keep) when the page's last slot is left out.
	pc := m.fetchPC
	room = min(room, len(buf), m.instsToPageEnd(pc)-1)
	if remain := m.runTarget - m.res.Committed; uint64(room) > remain {
		room = int(remain)
	}
	for n < room && buf[n].Plain {
		n++
	}
	if n == 0 || buf[0].PC != pc {
		// Not plain, or machine and buffer disagree (the scalar slot owns
		// the desync panic).
		return 0, 0, false
	}
	// Only its first fetch can walk; the group absorbs that stall as it
	// would a scalar slot's.
	pfn, stall, usedTLB := m.engine.Fetch(pc, uint64(n), m.sequential, false)
	// The back-end clock stays in a register (bc) for the whole stretch:
	// the same float additions in the same order as accountCommit —
	// invWidth per instruction, never n·invWidth, interleaved with each
	// memory op's latency — so the sum is bit-identical. syncBackend's
	// clamp runs only between groups, and a stretch never spans two.
	invWidth, blockShift := m.invWidth, m.il1BlockShift
	bc := m.backCycle
	for k := range buf[:n] {
		s := &buf[k]
		if blk := uint64(s.PC) >> blockShift; !m.haveBlock || blk != m.lastBlock {
			m.lastBlock, m.haveBlock = blk, true
			stall += m.blockFill(s.PC, pfn, false)
		}
		// The first instruction after a redirect carries sequential=false
		// into its (possible) VI-VT miss attribution, exactly like the
		// scalar slot; every later one is sequential.
		m.sequential = true
		bc += invWidth
		if s.Kind.IsMem() {
			bc = m.accountMem(s, bc)
		}
	}
	m.backCycle = bc
	m.res.Committed += uint64(n)
	m.totalCommitted += uint64(n)
	m.paths.BulkCommitted += uint64(n)
	m.stepPos += n
	m.fetchPC = pc + addr.VAddr(n)*addr.InstBytes
	return n, stall, usedTLB
}

// blockFill charges the iL1 probe of the block holding pc (and any L2/DRAM
// fill) and returns its stall cycles. VI-VT indexes and tags virtually,
// VI-PT indexes virtually and tags physically, PI-PT does both physically.
// Eager styles already hold the translation (pfn); under the lazy style a
// miss translates now (Figure 1(c)), through the ordinary OnIL1Miss event.
func (m *Machine) blockFill(pc addr.VAddr, pfn uint64, wrong bool) int {
	if m.eager {
		pa := m.geom.Translate(pfn, pc)
		idx := uint64(pc)
		if m.pipt {
			idx = uint64(pa)
		}
		if r := m.il1.Access(idx, uint64(pa), false); r.Hit {
			return 0
		}
		stall := m.l2Latency
		if lr := physAccess(m.l2, pa, false); !lr.Hit {
			stall += m.dramLatency
		}
		return stall
	}
	if r := m.il1.Access(uint64(pc), uint64(pc), false); r.Hit {
		return 0
	}
	pa, stall := m.engine.OnIL1Miss(pc, m.sequential, wrong)
	stall += m.l2Latency
	if lr := physAccess(m.l2, pa, false); !lr.Hit {
		stall += m.dramLatency
	}
	return stall
}

// runWrongPath fetches down the mispredicted path for `penalty` cycles.
// Wrong-path instructions consume translation energy and pollute the iTLB
// and iL1, and perturb the predictor's speculative structures — Predict
// pushes and pops the RAS and touches BTB LRU — but never reach resolution,
// so direction counters and BTB contents are not trained by them (matching
// hardware, where bimodal/BTB updates happen at branch resolution). As on
// the correct path, each slot of a batched machine first offers its plain
// stretch to wrongStretch, and an unbatched source runs the scalar slots
// end to end.
func (m *Machine) runWrongPath(start addr.VAddr, penalty uint64) {
	deadline := m.frontCycle + penalty
	wp := start
	m.sequential = false
	m.haveBlock = false
	w := m.cfg.FetchWidth
	for m.frontCycle < deadline {
		groupStall := 0
		for slot := 0; slot < w; slot++ {
			if run := m.img.PlainRun(wp); run > 0 && m.batcher != nil {
				n, st := m.wrongStretch(wp, min(run, w-slot))
				groupStall += st
				wp += addr.VAddr(n) * addr.InstBytes
				slot += n - 1
				continue
			}
			in := m.img.At(wp)
			st, _ := m.fetchInst(wp, true)
			groupStall += st
			m.res.WrongPathFetches++
			m.sequential = true
			if !in.Kind.IsCTI() {
				wp += addr.InstBytes
				continue
			}
			pred := m.pred.Predict(wp, in.Kind)
			m.engine.OnCTIPredicted(in, pred)
			if pred.Taken {
				wp = pred.Target
				m.sequential = false
				break
			}
			wp += addr.InstBytes
		}
		m.frontCycle += uint64(1 + groupStall)
	}
}

// wrongStretch retires the plain stretch of wrong-path fetches that starts
// at wp: run ≥ 1 fetches (the image's plain run there, which never leaves
// the image, bounded by the group's remaining slots) cut at wp's page end,
// with the per-fetch engine work done by one Fetch call. It mirrors those
// scalar slots exactly — counters, cache and CFR/iTLB state, stall charges —
// and returns the stretch's length and stall cycles. Stubs are Jumps, so the
// image's Plain bits are exactly the scalar slot's IsCTI test. Wrong-path
// groups charge no PI-PT serialization cycle, so the iTLB use is dropped, as
// in the scalar slots.
func (m *Machine) wrongStretch(wp addr.VAddr, run int) (n, stall int) {
	n = min(run, m.instsToPageEnd(wp))
	pfn, stall, _ := m.engine.Fetch(wp, uint64(n), m.sequential, true)
	// The fetches are sequential, so only the first one of each iL1 block
	// can probe, and only the stretch's first fetch can carry
	// sequential=false into a VI-VT miss.
	blockShift := m.il1BlockShift
	end := wp + addr.VAddr(n)*addr.InstBytes
	for pc := wp; pc < end; {
		blk := uint64(pc) >> blockShift
		if !m.haveBlock || blk != m.lastBlock {
			m.lastBlock, m.haveBlock = blk, true
			stall += m.blockFill(pc, pfn, true)
		}
		m.sequential = true
		pc = addr.VAddr((blk + 1) << blockShift)
	}
	m.res.WrongPathFetches += uint64(n)
	m.paths.BulkWrongPath += uint64(n)
	return n, stall
}

// accountCommit charges the back end for one committed instruction and
// maintains the correct-path statistics. The periodic OS-pressure events key
// off the lifetime commit counter, not the resettable statistic, so their
// cadence is unaffected by where the warm-up boundary falls.
func (m *Machine) accountCommit(s *program.Step) {
	if s.Inst.BoundaryStub {
		m.res.Stubs++
	} else {
		m.res.Committed++
		m.totalCommitted++
		if m.cfg.ContextSwitchEvery > 0 && m.totalCommitted%m.cfg.ContextSwitchEvery == 0 {
			m.contextSwitch()
		}
		if m.cfg.RemapEvery > 0 && m.totalCommitted%m.cfg.RemapEvery == 0 {
			m.injectRemap()
		}
	}

	// Back-end bandwidth.
	bc := m.backCycle + m.invWidth

	if s.Kind.IsMem() {
		bc = m.accountMem(s, bc)
	}
	m.backCycle = bc

	// Correct-path page-crossing statistics (Table 2).
	m.accountCross(s)
}

// accountMem charges one memory instruction: dTLB (or data CFR) and the
// dL1/L2/DRAM hierarchy, with MLP-scaled exposed latency. The back-end clock
// is threaded through by value (bc in, updated bc out) so a stretch can
// keep it in a register across all its memory ops instead of
// re-reading and re-writing the field per op; the float additions happen in
// exactly the order the clock field would have seen them, so the sum is
// bit-identical. Translation layering: the data CFR (when enabled) is
// checked first; on a miss the dTLB is looked up, which charges its
// statistics and LRU state at the access.
func (m *Machine) accountMem(s *program.Step, bc float64) float64 {
	// With the data-CFR extension enabled, same-page references ride the
	// register instead of the dTLB.
	vpn := m.geom.VPN(s.Data)
	var pa addr.PAddr
	if m.hasDataCFR && m.dcfrValid && m.dcfrVPN == vpn {
		m.res.DCFRHits++
		pa = m.geom.Translate(m.dcfrPFN, s.Data)
	} else {
		tr := m.dtlb.Lookup(vpn, m.walkFn)
		if tr.ExtraCycles != 0 {
			// Skipping the += 0.0 of a hit is exact: adding +0.0 to a
			// non-negative float is the identity.
			bc += float64(tr.ExtraCycles)
		}
		if m.hasDataCFR {
			m.res.DCFRLookups++
			m.dcfrVPN, m.dcfrPFN, m.dcfrValid = vpn, tr.PFN, true
		}
		pa = m.geom.Translate(tr.PFN, s.Data)
	}
	dr := physAccess(m.dl1, pa, s.Kind == isa.Store)
	if !dr.Hit {
		lat := m.l2Latency
		if lr := physAccess(m.l2, pa, dr.WriteBack); !lr.Hit {
			lat += m.dramLatency
		}
		bc += float64(lat) * m.mlp
	}
	return bc
}

// accountCross maintains the page-crossing and dynamic-branch statistics
// (Tables 2 and 4) for one committed instruction.
func (m *Machine) accountCross(s *program.Step) {
	if !m.geom.SamePage(s.PC, s.Next) {
		if s.Next == s.PC+addr.InstBytes || s.Inst.BoundaryStub {
			m.res.CrossBoundary++
		} else {
			m.res.CrossBranch++
		}
	}

	// Dynamic branch statistics (Table 4); stubs are compiler artifacts.
	if s.Inst.Kind.IsCTI() && !s.Inst.BoundaryStub {
		m.res.DynBranches++
		if s.Inst.Kind.IsDirect() {
			m.res.DynAnalyzable++
			if s.Inst.InPage {
				m.res.DynInPage++
			} else {
				m.res.DynCrossingBits++
			}
		}
	}
}

// contextSwitch models the OS taking the core away and handing it back:
// TLBs flush, the CFR survives as saved/restored register state (§3.2), the
// pipeline drains and refills.
func (m *Machine) contextSwitch() {
	m.res.ContextSwitches++
	m.engine.OnContextSwitch()
	m.dtlb.Flush()
	m.dcfrValid = false
	m.frontCycle += uint64(m.cfg.Bpred.MispredictPenalty) // drain/refill
	m.haveBlock = false
	m.sequential = false
}

// injectRemap migrates one code page to a fresh frame, cycling through the
// image. The OS refuses to move the pinned (CFR-resident) page and defers —
// the Denied path of the §3.2 contract.
func (m *Machine) injectRemap() {
	m.res.Remaps++
	m.totalRemaps++
	pages := uint64(m.img.Pages())
	if pages == 0 {
		return
	}
	vpn := m.geom.VPN(m.img.Base) + (m.totalRemaps % pages)
	if _, err := m.space.Remap(vpn); err != nil {
		m.res.RemapsDeferred++
	}
}

// syncBackend enforces the RUU run-ahead window: the front end cannot be
// more than `slack` cycles ahead of the back end, and the back end never
// lags behind what has been delivered.
func (m *Machine) syncBackend() {
	// The two clamps are mutually exclusive (raising backCycle to f-slack
	// cannot push it past f+slack), so else-if is exact and the common
	// no-clamp path costs one conversion and two compares.
	f := float64(m.frontCycle)
	if m.backCycle < f-m.slack {
		m.backCycle = f - m.slack
	} else if m.backCycle > f+m.slack {
		m.frontCycle = uint64(m.backCycle - m.slack)
	}
}

// MachineState is a deep snapshot of everything a Machine owns: its clocks,
// fetch state, statistics, the iL1/dL1/L2/dTLB/predictor contents, and the
// correct-path source position (including the step read-ahead buffer). It
// does NOT cover the components the machine borrows — the engine (CFR), the
// iTLB and the address space belong to the caller, which must snapshot them
// alongside (core.Engine.Snapshot, tlb.TLB.Snapshot, vm.AddressSpace.Snapshot)
// for a complete warm image. The state shares no mutable memory with the
// machine, so one snapshot can seed many machines concurrently.
type MachineState struct {
	frontCycle uint64
	backCycle  float64
	cycleBase  uint64
	backBase   float64

	dcfrVPN   uint64
	dcfrPFN   uint64
	dcfrValid bool

	fetchPC        addr.VAddr
	sequential     bool
	lastBlock      uint64
	haveBlock      bool
	totalCommitted uint64
	totalRemaps    uint64
	res            Result
	paths          PathStats

	il1  *cache.State
	dl1  *cache.State
	l2   *cache.State
	dtlb *tlb.State
	pred *bpred.State

	// Source position. When srcAhead is set the source had been pulled
	// stepPos..stepBufLen steps ahead of the machine: src is its position
	// from just before the last buffer refill, and Restore re-runs that
	// refill to rebuild the identical buffer contents.
	src      program.SourceState
	srcAhead bool
	stepPos  int
}

// Checkpoint captures the machine's warm state. It reports false when the
// correct-path source does not implement program.Snapshotter, in which case
// the machine cannot be forked and callers fall back to a full warm-up.
func (m *Machine) Checkpoint() (*MachineState, bool) {
	if m.snap == nil {
		return nil, false
	}
	st := &MachineState{
		frontCycle:     m.frontCycle,
		backCycle:      m.backCycle,
		cycleBase:      m.cycleBase,
		backBase:       m.backBase,
		dcfrVPN:        m.dcfrVPN,
		dcfrPFN:        m.dcfrPFN,
		dcfrValid:      m.dcfrValid,
		fetchPC:        m.fetchPC,
		sequential:     m.sequential,
		lastBlock:      m.lastBlock,
		haveBlock:      m.haveBlock,
		totalCommitted: m.totalCommitted,
		totalRemaps:    m.totalRemaps,
		res:            m.res,
		paths:          m.paths,
		il1:            m.il1.Snapshot(),
		dl1:            m.dl1.Snapshot(),
		l2:             m.l2.Snapshot(),
		dtlb:           m.dtlb.Snapshot(),
		pred:           m.pred.Snapshot(),
	}
	if m.batcher != nil && m.stepPos < stepBufLen {
		st.src = m.srcState
		st.srcAhead = true
		st.stepPos = m.stepPos
	} else {
		st.src = m.snap.SnapshotState()
	}
	return st, true
}

// Bytes is the state's approximate resident size: its own fields plus the
// cache, dTLB and predictor snapshots. The source position is not counted
// (it is a few words plus the executor's call stack).
func (st *MachineState) Bytes() int {
	return int(unsafe.Sizeof(*st)) + st.il1.Bytes() + st.dl1.Bytes() + st.l2.Bytes() +
		st.dtlb.Bytes() + st.pred.Bytes()
}

// Restore reinstates a state captured by Checkpoint on a machine built with
// the same configuration, image and source kind. The caller is responsible
// for restoring the borrowed components (engine, iTLB, address space) to the
// matching snapshot — a machine restored without them will desynchronize.
func (m *Machine) Restore(st *MachineState) error {
	if m.snap == nil {
		return fmt.Errorf("pipeline: source %T cannot restore state", m.ex)
	}
	if st.srcAhead && m.batcher == nil {
		return fmt.Errorf("pipeline: state has buffered read-ahead but source %T is not a Batcher", m.ex)
	}
	if err := m.il1.Restore(st.il1); err != nil {
		return fmt.Errorf("pipeline: iL1: %w", err)
	}
	if err := m.dl1.Restore(st.dl1); err != nil {
		return fmt.Errorf("pipeline: dL1: %w", err)
	}
	if err := m.l2.Restore(st.l2); err != nil {
		return fmt.Errorf("pipeline: L2: %w", err)
	}
	if err := m.dtlb.Restore(st.dtlb); err != nil {
		return fmt.Errorf("pipeline: dTLB: %w", err)
	}
	if err := m.pred.Restore(st.pred); err != nil {
		return fmt.Errorf("pipeline: predictor: %w", err)
	}
	if err := m.snap.RestoreState(st.src); err != nil {
		return fmt.Errorf("pipeline: source: %w", err)
	}
	if st.srcAhead {
		// Re-run the refill the checkpointed machine had already done; the
		// source is deterministic, so the buffer contents come out identical.
		m.srcState = st.src
		m.batcher.StepN(m.stepBuf)
		m.stepPos = st.stepPos
	} else if m.batcher != nil {
		m.stepPos = stepBufLen
	}
	m.frontCycle = st.frontCycle
	m.backCycle = st.backCycle
	m.cycleBase = st.cycleBase
	m.backBase = st.backBase
	m.dcfrVPN = st.dcfrVPN
	m.dcfrPFN = st.dcfrPFN
	m.dcfrValid = st.dcfrValid
	m.fetchPC = st.fetchPC
	m.sequential = st.sequential
	m.lastBlock = st.lastBlock
	m.haveBlock = st.haveBlock
	m.totalCommitted = st.totalCommitted
	m.totalRemaps = st.totalRemaps
	m.res = st.res
	m.paths = st.paths
	return nil
}
