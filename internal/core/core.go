// Package core implements the paper's contribution: the Current Frame
// Register (CFR) and the translation schemes built around it.
//
// The CFR holds the translation of the instruction page currently being
// executed: ⟨virtual page number, physical frame number, protection bits⟩
// (§3.1, Figure 1). As long as fetch stays inside that page, the physical
// frame number comes from the CFR and the iTLB is never consulted. The
// schemes differ in *how they know* fetch is still inside the page:
//
//	Base  — no CFR; the machine of §2. Eager iL1 styles (VI-PT, PI-PT)
//	        consult the iTLB on every fetch; the lazy style (VI-VT)
//	        consults it on every iL1 miss.
//	OPT   — oracle lower bound (§4.1): iTLB energy only on an actual,
//	        architectural page change.
//	HoA   — hardware-only (§3.3.1): a comparator checks every fetched PC
//	        against the CFR VPN, costing comparator energy per fetch.
//	SoCA  — software-only conservative (§3.3.2): every control transfer
//	        triggers a lookup for its target; compiler-inserted BOUNDARY
//	        stubs cover sequential page crossings.
//	SoLA  — software-only less conservative (§3.3.3): like SoCA, but
//	        branches carrying the compiler's in-page bit do not trigger.
//	IA    — integrated (§3.3.4, Figures 2 & 3): BOUNDARY stubs plus a BTB-
//	        side page comparison; lookups happen only when the predicted
//	        target leaves the CFR page (C), or on mispredictions (B, D).
//
// The engine is driven by the pipeline's fetch stream — including wrong-path
// fetches after branch mispredictions — through four events: FetchTranslate
// (eager styles, every instruction), OnCTIPredicted / OnCTIResolved (branch
// machinery), and OnIL1Miss (lazy style). CFR state is checkpointed at every
// predicted branch and restored on squash, exactly as other speculative
// register state.
package core

import (
	"fmt"
	"strings"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/bpred"
	"itlbcfr/internal/cache"
	"itlbcfr/internal/energy"
	"itlbcfr/internal/isa"
	"itlbcfr/internal/tlb"
	"itlbcfr/internal/vm"
)

// Scheme selects the translation mechanism.
type Scheme int

const (
	Base Scheme = iota
	OPT
	HoA
	SoCA
	SoLA
	IA

	numSchemes
)

// Schemes lists all schemes in the paper's presentation order.
func Schemes() []Scheme { return []Scheme{Base, OPT, HoA, SoCA, SoLA, IA} }

var schemeNames = [...]string{"Base", "OPT", "HoA", "SoCA", "SoLA", "IA"}

func (s Scheme) String() string {
	if int(s) < len(schemeNames) {
		return schemeNames[s]
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// ParseScheme converts a name to a Scheme (case-insensitive).
func ParseScheme(name string) (Scheme, error) {
	for i, n := range schemeNames {
		if strings.EqualFold(n, name) {
			return Scheme(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown scheme %q", name)
}

// Known reports whether s is one of the defined schemes.
func (s Scheme) Known() bool { return s >= 0 && int(s) < len(schemeNames) }

// MarshalText encodes the scheme by name, so JSON carries "IA" rather than
// an ordinal that would silently re-map if the constant order ever changed.
func (s Scheme) MarshalText() ([]byte, error) {
	if !s.Known() {
		return nil, fmt.Errorf("core: cannot marshal unknown scheme %d", int(s))
	}
	return []byte(schemeNames[s]), nil
}

// UnmarshalText decodes a scheme name.
func (s *Scheme) UnmarshalText(text []byte) error {
	sch, err := ParseScheme(string(text))
	if err != nil {
		return err
	}
	*s = sch
	return nil
}

// NeedsStubs reports whether the scheme requires the compiler's BOUNDARY
// stub branches (and in-page marking) in the code image.
func (s Scheme) NeedsStubs() bool { return s == SoCA || s == SoLA || s == IA }

// UsesCFR reports whether the scheme keeps a CFR at all.
func (s Scheme) UsesCFR() bool { return s != Base }

// Cause attributes an iTLB lookup to the paper's BOUNDARY/BRANCH split
// (Tables 2 and 3).
type Cause int

const (
	// CauseBase marks the per-fetch / per-miss lookups of the Base scheme.
	CauseBase Cause = iota
	// CauseBoundary marks lookups forced by sequential page crossings
	// (BOUNDARY stubs, or sequential VPN changes under HoA/OPT).
	CauseBoundary
	// CauseBranch marks lookups forced by control transfers.
	CauseBranch
)

// CFR is the Current Frame Register (§3.1).
type CFR struct {
	VPN   uint64
	PFN   uint64
	Prot  uint8
	Valid bool
}

// Covers reports whether the CFR supplies the translation for vpn.
func (c CFR) Covers(vpn uint64) bool { return c.Valid && c.VPN == vpn }

// Stats counts engine activity. Lookups here are iTLB consultations; the
// per-level access/miss energy is accounted by the TLB's energy meter.
type Stats struct {
	Lookups         uint64 // total iTLB consultations
	LookupsBoundary uint64 // BOUNDARY-attributed (stubs / sequential crossing)
	LookupsBranch   uint64 // BRANCH-attributed
	LookupsBase     uint64 // Base scheme's unconditional lookups
	CFRHits         uint64 // translations served by the CFR
	Comparisons     uint64 // HoA comparator operations
	WalkCycles      uint64 // cycles spent in page walks
	StaleUses       uint64 // correctness tripwire: CFR used for a wrong page
}

// State is a CFR checkpoint: taken at every predicted branch and restored
// on a squash, and the engine's part of a post-warm-up snapshot. It
// excludes the statistics.
type State struct {
	CFR          CFR
	Pending      bool
	PendingCause Cause
	LookupAtPred bool
}

// Engine drives one scheme over one iL1 style.
type Engine struct {
	scheme Scheme
	style  cache.Style
	geom   addr.Geometry
	itlb   *tlb.TLB
	space  *vm.AddressSpace
	meter  *energy.Meter

	// walkFn is space.Walk bound once at construction, so the per-lookup
	// path does not materialize a fresh method value.
	walkFn func(vpn uint64) uint64

	cfr CFR
	// pending is the software/BTB trigger: the CFR may not cover the next
	// target, so the next consumed translation must consult the iTLB.
	pending      bool
	pendingCause Cause
	// lookupAtPred records that IA already looked up for the predicted
	// target of the in-flight branch (Figure 3's eager C path), which is
	// what makes case D need a second lookup.
	lookupAtPred bool

	stats Stats
}

// NewEngine builds an engine. The TLB should already have an energy meter
// attached; the engine shares it for CFR/comparator accounting.
func NewEngine(scheme Scheme, style cache.Style, geom addr.Geometry,
	itlb *tlb.TLB, space *vm.AddressSpace, meter *energy.Meter) *Engine {
	e := &Engine{
		scheme: scheme,
		style:  style,
		geom:   geom,
		itlb:   itlb,
		space:  space,
		meter:  meter,
		walkFn: space.Walk,
	}
	// The OS invalidates the CFR when the mapped page is remapped or
	// evicted, exactly as it would shoot down the iTLB entry (§3.2).
	space.OnInvalidate(func(vpn uint64) {
		if e.cfr.Valid && e.cfr.VPN == vpn {
			e.cfr.Valid = false
		}
		itlb.Invalidate(vpn)
	})
	return e
}

// Scheme returns the engine's scheme.
func (e *Engine) Scheme() Scheme { return e.scheme }

// Style returns the engine's iL1 style.
func (e *Engine) Style() cache.Style { return e.style }

// CFRState returns a copy of the CFR (for tests and introspection).
func (e *Engine) CFRState() CFR { return e.cfr }

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// ResetStats zeroes the counters without touching CFR or TLB state.
func (e *Engine) ResetStats() { e.stats = Stats{} }

// OnContextSwitch models a context switch and return (§3.2): the iTLB is
// flushed (the Table 1 machine has no ASIDs), while the CFR is saved and
// restored "as yet another register", so the returning process still holds
// its current page's translation. Restoring the register costs one CFR
// write. Base has no CFR and merely loses its TLB contents.
func (e *Engine) OnContextSwitch() {
	e.itlb.Flush()
	if e.scheme.UsesCFR() && e.cfr.Valid {
		if e.meter != nil {
			e.meter.AddCFRWrite()
		}
	}
}

// lookup consults the iTLB for vpn, refills the CFR and returns the PFN and
// the walk latency.
func (e *Engine) lookup(vpn uint64, cause Cause) (uint64, int) {
	e.stats.Lookups++
	switch cause {
	case CauseBoundary:
		e.stats.LookupsBoundary++
	case CauseBranch:
		e.stats.LookupsBranch++
	default:
		e.stats.LookupsBase++
	}
	r := e.itlb.Lookup(vpn, e.walkFn)
	e.stats.WalkCycles += uint64(r.ExtraCycles)
	if e.scheme.UsesCFR() {
		e.cfr = CFR{VPN: vpn, PFN: r.PFN, Valid: true}
		if e.meter != nil {
			e.meter.AddCFRWrite()
		}
		// Keep the OS pin on the CFR-resident page (§3.2).
		e.space.Pin(vpn)
	}
	e.pending = false
	return r.PFN, r.ExtraCycles
}

// FetchOutcome describes translation of one fetched instruction under an
// eager style (VI-PT / PI-PT).
type FetchOutcome struct {
	PFN addr.PAddr // physical address of the fetch
	// StallCycles is the fetch stall: page-walk latency, plus the PI-PT
	// serialization handled by the pipeline per group.
	StallCycles int
	// UsedTLB reports whether the iTLB was consulted (drives the PI-PT
	// per-group serialization and Table 3 counts).
	UsedTLB bool
}

// FetchTranslate produces the physical address for an instruction fetch
// under the eager styles. sequential reports that this fetch followed the
// previous one without a redirect (BOUNDARY attribution). wrongPath marks
// fetches past a mispredicted branch; they consume energy and pollute the
// iTLB exactly like real fetches, but the OPT oracle ignores them.
func (e *Engine) FetchTranslate(pc addr.VAddr, sequential, wrongPath bool) FetchOutcome {
	if e.style == cache.VIVT {
		panic("core: FetchTranslate called under the lazy VI-VT style")
	}
	vpn := e.geom.VPN(pc)
	cause := CauseBranch
	if sequential {
		cause = CauseBoundary
	}

	switch e.scheme {
	case Base:
		pfn, stall := e.lookup(vpn, CauseBase)
		return FetchOutcome{PFN: e.geom.Translate(pfn, pc), StallCycles: stall, UsedTLB: true}

	case OPT:
		// Oracle: energy only on an actual page change of the real
		// execution. Wrong-path fetches are invisible to it, but they must
		// still fetch from the right physical frame so the oracle's caches
		// stay comparable to every other scheme's.
		if wrongPath {
			return FetchOutcome{PFN: e.geom.Translate(e.space.Walk(vpn), pc)}
		}
		if e.cfr.Covers(vpn) {
			return e.cfrHit(pc)
		}
		pfn, stall := e.lookup(vpn, cause)
		return FetchOutcome{PFN: e.geom.Translate(pfn, pc), StallCycles: stall, UsedTLB: true}

	case HoA:
		// Comparator on every fetch (§3.3.1) — the energy that separates
		// HoA from OPT in Figure 4.
		e.stats.Comparisons++
		if e.meter != nil {
			e.meter.AddComparison()
		}
		if e.cfr.Covers(vpn) {
			return e.cfrHit(pc)
		}
		pfn, stall := e.lookup(vpn, cause)
		return FetchOutcome{PFN: e.geom.Translate(pfn, pc), StallCycles: stall, UsedTLB: true}

	case SoCA, SoLA, IA:
		if e.pending || !e.cfr.Valid {
			pfn, stall := e.lookup(vpn, e.pendingOr(cause))
			return FetchOutcome{PFN: e.geom.Translate(pfn, pc), StallCycles: stall, UsedTLB: true}
		}
		if e.cfr.VPN != vpn {
			// The software contract failed to arm a lookup before a page
			// change. On the correct path this would be an architectural
			// bug; on the wrong path it merely fetches garbage, which the
			// squash discards.
			if !wrongPath {
				e.stats.StaleUses++
			}
			return FetchOutcome{PFN: e.geom.Translate(e.cfr.PFN, pc)}
		}
		return e.cfrHit(pc)
	}
	panic("core: unreachable scheme")
}

func (e *Engine) cfrHit(pc addr.VAddr) FetchOutcome {
	e.stats.CFRHits++
	if e.meter != nil {
		e.meter.AddCFRRead()
	}
	return FetchOutcome{PFN: e.geom.Translate(e.cfr.PFN, pc)}
}

// FetchTranslateRun batches the engine work for n consecutive correct-path
// fetches that all hit vpn — the pipeline's fast path for sequential runs
// within the CFR-resident page. It performs exactly the accounting n calls
// to FetchTranslate (eager styles) or OnFetchObserved (lazy style) would:
// per-fetch CFR reads and HoA comparator operations, with no CFR or iTLB
// state change. It returns false — having done nothing — whenever any of
// those n calls would have deviated from the pure CFR-hit path (Base's
// unconditional lookups, a pending software trigger, a CFR miss), in which
// case the caller must fall back to per-fetch calls.
func (e *Engine) FetchTranslateRun(vpn uint64, n uint64) bool {
	if e.style == cache.VIVT {
		// Lazy style: translation happens on iL1 misses (which the caller
		// still reports via OnIL1Miss); the only per-fetch engine work is
		// HoA's comparator.
		if e.scheme == HoA {
			e.stats.Comparisons += n
			if e.meter != nil {
				e.meter.AddComparisons(n)
			}
		}
		return true
	}
	switch e.scheme {
	case OPT:
		if !e.cfr.Covers(vpn) {
			return false
		}
	case HoA:
		if !e.cfr.Covers(vpn) {
			return false
		}
		e.stats.Comparisons += n
		if e.meter != nil {
			e.meter.AddComparisons(n)
		}
	case SoCA, SoLA, IA:
		if e.pending || !e.cfr.Valid || e.cfr.VPN != vpn {
			return false
		}
	default: // Base consults the iTLB on every fetch
		return false
	}
	e.stats.CFRHits += n
	if e.meter != nil {
		e.meter.AddCFRReads(n)
	}
	return true
}

// FetchTranslateRunWrong is the wrong-path analogue of FetchTranslateRun: it
// batches n sequential wrong-path fetches of vpn, returning the frame number
// to fetch from and whether batching was possible. It reproduces exactly what
// n calls to FetchTranslate (or OnFetchObserved) with wrongPath=true would do
// on their non-mutating paths: OPT walks the page table per fetch but records
// nothing, the software schemes may consume a stale CFR frame without
// counting it, and CFR hits and HoA comparisons count as usual. Any case that
// would consult the iTLB returns false untouched.
func (e *Engine) FetchTranslateRunWrong(vpn uint64, n uint64) (uint64, bool) {
	if e.style == cache.VIVT {
		if e.scheme == HoA {
			e.stats.Comparisons += n
			if e.meter != nil {
				e.meter.AddComparisons(n)
			}
		}
		return 0, true // translation happens at iL1 misses via OnIL1Miss
	}
	switch e.scheme {
	case OPT:
		return e.space.WalkN(vpn, n), true
	case HoA:
		if !e.cfr.Covers(vpn) {
			return 0, false
		}
		e.stats.Comparisons += n
		if e.meter != nil {
			e.meter.AddComparisons(n)
		}
	case SoCA, SoLA, IA:
		if e.pending || !e.cfr.Valid {
			return 0, false
		}
		if e.cfr.VPN != vpn {
			// Stale use: the squash discards the fetch, and wrong-path stale
			// uses are not counted (see FetchTranslate).
			return e.cfr.PFN, true
		}
	default: // Base consults the iTLB on every fetch
		return 0, false
	}
	e.stats.CFRHits += n
	if e.meter != nil {
		e.meter.AddCFRReads(n)
	}
	return e.cfr.PFN, true
}

func (e *Engine) pendingOr(c Cause) Cause {
	if e.pending {
		return e.pendingCause
	}
	return c
}

// arm registers a software trigger: the next consumed translation must
// consult the iTLB.
func (e *Engine) arm(cause Cause) {
	e.pending = true
	e.pendingCause = cause
}

func causeOf(in *isa.Inst) Cause {
	if in.BoundaryStub {
		return CauseBoundary
	}
	return CauseBranch
}

// OnCTIPredicted runs the scheme's branch-side trigger logic when fetch
// encounters a CTI with prediction pred. It returns extra fetch stall
// cycles (IA's eager predicted-target lookup can walk).
func (e *Engine) OnCTIPredicted(pc addr.VAddr, in *isa.Inst, pred bpred.Prediction) int {
	e.lookupAtPred = false
	switch e.scheme {
	case Base, OPT, HoA:
		return 0

	case SoCA:
		// Every branch target goes through the iTLB (§3.3.2).
		e.arm(causeOf(in))
		return 0

	case SoLA:
		// In-page branches are exempt (§3.3.3).
		if !in.InPage {
			e.arm(causeOf(in))
		}
		return 0

	case IA:
		// Figure 2/3: when a predicted target is available, compare its
		// page against the CFR.
		if !pred.Taken {
			// Predicted not-taken: fall-through stays in the page; nothing
			// to do until resolution (cases A/B).
			return 0
		}
		tvpn := e.geom.VPN(pred.Target)
		if e.cfr.Covers(tvpn) {
			// Case A: target in the CFR page, no lookup.
			return 0
		}
		if e.style == cache.VIVT {
			// Lazy: defer the lookup to the next iL1 miss.
			e.arm(causeOf(in))
			return 0
		}
		// Eager: look up for the predicted target now (case C's lookup).
		e.lookupAtPred = true
		_, stall := e.lookup(tvpn, causeOf(in))
		return stall
	}
	panic("core: unreachable scheme")
}

// OnCTIResolved runs when the branch at pc resolves. mispredicted reports a
// squash; the pipeline restores the checkpoint BEFORE calling this, so the
// engine sees pre-branch CFR state and applies Figure 3's B/D lookups on
// top. It returns extra stall cycles from walks.
func (e *Engine) OnCTIResolved(pc addr.VAddr, in *isa.Inst, pred bpred.Prediction,
	taken bool, actualNext addr.VAddr, mispredicted bool, lookupAtPred bool) int {
	if !mispredicted {
		return 0
	}
	// The squash restored the checkpoint taken before the branch, which
	// discarded the trigger the software schemes armed at predict time.
	// Their contract — every branch target goes through the iTLB — still
	// holds for the resolved branch, so re-arm it.
	switch e.scheme {
	case SoCA:
		e.arm(causeOf(in))
		return 0
	case SoLA:
		if !in.InPage {
			e.arm(causeOf(in))
		}
		return 0
	}
	if e.scheme != IA {
		return 0
	}
	if taken {
		// Case B: predicted not-taken but actually taken — look up for the
		// target address regardless of its page (the paper is deliberately
		// conservative here).
		if e.style == cache.VIVT {
			e.arm(causeOf(in))
			return 0
		}
		_, stall := e.lookup(e.geom.VPN(actualNext), causeOf(in))
		return stall
	}
	// Predicted taken but actually not taken. If the prediction-time lookup
	// changed the CFR (case D), the fall-through needs its page back.
	if lookupAtPred {
		if e.style == cache.VIVT {
			e.arm(causeOf(in))
			return 0
		}
		_, stall := e.lookup(e.geom.VPN(actualNext), CauseBranch)
		return stall
	}
	// Prediction was taken-to-same-page: the restored CFR still covers the
	// fall-through; no lookup (the cheap corner of Figure 3).
	return 0
}

// MissOutcome describes translation at a VI-VT iL1 miss.
type MissOutcome struct {
	PFN addr.PAddr
	// StallCycles include the +1 serialized iTLB probe (when consulted)
	// and any page-walk latency.
	StallCycles int
	UsedTLB     bool
}

// OnIL1Miss supplies the physical address for an iL1 miss under the lazy
// VI-VT style (Figure 1(c)): the CFR satisfies it free of charge when it
// covers the page; otherwise the iTLB is consulted, costing one serialized
// cycle plus any walk.
func (e *Engine) OnIL1Miss(pc addr.VAddr, sequential, wrongPath bool) MissOutcome {
	if e.style != cache.VIVT {
		panic("core: OnIL1Miss called under an eager style")
	}
	vpn := e.geom.VPN(pc)
	cause := CauseBranch
	if sequential {
		cause = CauseBoundary
	}

	consult := false
	switch e.scheme {
	case Base:
		consult = true
		cause = CauseBase
	case OPT:
		if wrongPath {
			return MissOutcome{PFN: e.geom.Translate(e.space.Walk(vpn), pc)}
		}
		consult = !e.cfr.Covers(vpn)
	case HoA:
		// The comparator (charged per fetch in OnFetchObserved) tells the
		// hardware exactly whether the CFR covers this page.
		consult = !e.cfr.Covers(vpn)
	case SoCA, SoLA, IA:
		consult = e.pending || !e.cfr.Valid
		cause = e.pendingOr(cause)
		if !consult && e.cfr.VPN != vpn {
			if !wrongPath {
				e.stats.StaleUses++
			}
			return MissOutcome{PFN: e.geom.Translate(e.cfr.PFN, pc)}
		}
	}

	if !consult {
		out := e.cfrHit(pc)
		return MissOutcome{PFN: out.PFN}
	}
	pfn, walk := e.lookup(vpn, cause)
	return MissOutcome{PFN: e.geom.Translate(pfn, pc), StallCycles: 1 + walk, UsedTLB: true}
}

// OnFetchObserved charges HoA's per-fetch comparator under the lazy style,
// where FetchTranslate is never called. Other schemes ignore it.
func (e *Engine) OnFetchObserved(pc addr.VAddr) {
	if e.style != cache.VIVT || e.scheme != HoA {
		return
	}
	e.stats.Comparisons++
	if e.meter != nil {
		e.meter.AddComparison()
	}
	// The comparator result is consumed lazily: it keeps the CFR coverage
	// exact, which OnIL1Miss models by comparing VPNs directly.
}

// Checkpoint captures the CFR state at a predicted branch.
func (e *Engine) Checkpoint() State {
	return State{
		CFR:          e.cfr,
		Pending:      e.pending,
		PendingCause: e.pendingCause,
		LookupAtPred: e.lookupAtPred,
	}
}

// Restore rewinds to a checkpoint on a squash. iTLB contents are NOT
// restored — wrong-path pollution stays, as in real hardware.
func (e *Engine) Restore(s State) {
	e.cfr = s.CFR
	e.pending = s.Pending
	e.pendingCause = s.PendingCause
	e.lookupAtPred = s.LookupAtPred
}

// LookupAtPred reports whether the last OnCTIPredicted performed an eager
// lookup (needed by the pipeline to feed OnCTIResolved's case D).
func (e *Engine) TookLookupAtPred() bool { return e.lookupAtPred }
