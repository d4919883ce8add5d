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
// fetches after branch mispredictions — through four events: Fetch (every
// instruction, n same-page fetches per call), OnCTIPredicted / OnCTIResolved
// (branch machinery), and OnIL1Miss (lazy style). CFR state is checkpointed
// at every predicted branch and restored on squash, exactly as other
// speculative register state.
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
	// The OS keeps the CFR-resident page pinned (§3.2). The pin test reads
	// the CFR, so the pinned page is always the CFR's page — after a
	// refill, a squash's Restore or a warm fork — and Base, whose CFR is
	// never valid, pins nothing.
	space.PinWith(func(vpn uint64) bool { return e.cfr.Covers(vpn) })
	return e
}

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
	}
	e.pending = false
	return r.PFN, r.ExtraCycles
}

// Fetch translates n consecutive fetches from pc's page: pc and the n-1
// instructions after it, none of which redirects. sequential reports that
// the first fetch followed the previous one without a redirect (BOUNDARY
// attribution); the rest are sequential by construction. wrongPath marks
// fetches past a mispredicted branch: they consume energy and pollute the
// iTLB exactly like real fetches, but the OPT oracle ignores them and a
// stale CFR use on them is not counted. Fetch does exactly the accounting of
// n single-fetch calls, and n = 1 is the scalar fetch.
//
// It returns the frame number to fetch from, the stall cycles (page-walk
// latency; the pipeline adds PI-PT's per-group serialization) and whether
// the iTLB was consulted. Only the first fetch can look up: a lookup refills
// the CFR, which then covers the page, and nothing between the fetches can
// arm a trigger. Under the lazy VI-VT style translation happens at iL1
// misses (OnIL1Miss), so the frame number is 0 and unused.
func (e *Engine) Fetch(pc addr.VAddr, n uint64, sequential, wrongPath bool) (pfn uint64, stall int, usedTLB bool) {
	if e.scheme == HoA {
		// Comparator on every fetch (§3.3.1) — the energy that separates HoA
		// from OPT in Figure 4. Under VI-VT its result is consumed lazily:
		// OnIL1Miss models it by comparing VPNs directly.
		e.stats.Comparisons += n
		if e.meter != nil {
			e.meter.AddComparisons(n)
		}
	}
	if e.style == cache.VIVT {
		return 0, 0, false
	}
	vpn := e.geom.VPN(pc)
	switch e.scheme {
	case Base:
		return e.baseRun(vpn, n)
	case OPT:
		// Oracle: energy only on an actual page change of the real
		// execution. Wrong-path fetches are invisible to it, but they must
		// still fetch from the right physical frame so the oracle's caches
		// stay comparable to every other scheme's.
		if wrongPath {
			return e.space.WalkN(vpn, n), 0, false
		}
		usedTLB = !e.cfr.Covers(vpn)
	case HoA:
		usedTLB = !e.cfr.Covers(vpn)
	case SoCA, SoLA, IA:
		usedTLB = e.pending || !e.cfr.Valid
		if !usedTLB && e.cfr.VPN != vpn {
			// The software contract failed to arm a lookup before a page
			// change. On the correct path this would be an architectural
			// bug; on the wrong path it merely fetches garbage, which the
			// squash discards.
			if !wrongPath {
				e.stats.StaleUses += n
			}
			return e.cfr.PFN, 0, false
		}
	default:
		panic("core: unreachable scheme")
	}
	if usedTLB {
		_, stall = e.lookup(vpn, e.pendingOr(fetchCause(sequential)))
		n--
	}
	e.cfrReads(n)
	return e.cfr.PFN, stall, usedTLB
}

// fetchCause attributes a fetch-triggered lookup: BOUNDARY when the fetch
// followed its predecessor sequentially, BRANCH after a redirect.
func fetchCause(sequential bool) Cause {
	if sequential {
		return CauseBoundary
	}
	return CauseBranch
}

// cfrReads serves n translations from the CFR.
func (e *Engine) cfrReads(n uint64) {
	e.stats.CFRHits += n
	if e.meter != nil {
		e.meter.AddCFRReads(n)
	}
}

// baseRun is n of Base's per-fetch lookups of vpn (see lookup), done as one
// LookupRun. Base keeps no CFR, so nothing else changes.
func (e *Engine) baseRun(vpn uint64, n uint64) (uint64, int, bool) {
	e.stats.Lookups += n
	e.stats.LookupsBase += n
	r := e.itlb.LookupRun(vpn, n, e.walkFn)
	e.stats.WalkCycles += uint64(r.ExtraCycles)
	return r.PFN, r.ExtraCycles, true
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
func (e *Engine) OnCTIPredicted(in *isa.Inst, pred bpred.Prediction) int {
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

// OnCTIResolved runs when a mispredicted branch in resolves: taken is its
// actual direction, actualNext the correct-path successor, and lookupAtPred
// what TookLookupAtPred reported after its OnCTIPredicted. The pipeline
// restores the checkpoint BEFORE calling this, so the engine sees pre-branch
// CFR state and applies Figure 3's B/D lookups on top. It returns extra
// stall cycles from walks. A correctly predicted branch needs no call.
func (e *Engine) OnCTIResolved(in *isa.Inst, taken bool, actualNext addr.VAddr, lookupAtPred bool) int {
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

// OnIL1Miss supplies the physical address for an iL1 miss under the lazy
// VI-VT style (Figure 1(c)), and the miss's translation stall: the CFR
// satisfies it free of charge when it covers the page; otherwise the iTLB is
// consulted, costing one serialized cycle plus any walk.
func (e *Engine) OnIL1Miss(pc addr.VAddr, sequential, wrongPath bool) (addr.PAddr, int) {
	if e.style != cache.VIVT {
		panic("core: OnIL1Miss called under an eager style")
	}
	vpn := e.geom.VPN(pc)
	cause := fetchCause(sequential)

	consult := false
	switch e.scheme {
	case Base:
		consult = true
		cause = CauseBase
	case OPT:
		if wrongPath {
			return e.geom.Translate(e.space.Walk(vpn), pc), 0
		}
		consult = !e.cfr.Covers(vpn)
	case HoA:
		// The comparator (charged per fetch in Fetch) tells the hardware
		// exactly whether the CFR covers this page.
		consult = !e.cfr.Covers(vpn)
	case SoCA, SoLA, IA:
		consult = e.pending || !e.cfr.Valid
		cause = e.pendingOr(cause)
		if !consult && e.cfr.VPN != vpn {
			if !wrongPath {
				e.stats.StaleUses++
			}
			return e.geom.Translate(e.cfr.PFN, pc), 0
		}
	}

	if !consult {
		e.cfrReads(1)
		return e.geom.Translate(e.cfr.PFN, pc), 0
	}
	pfn, walk := e.lookup(vpn, cause)
	return e.geom.Translate(pfn, pc), 1 + walk
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

// TookLookupAtPred reports whether the last OnCTIPredicted performed an
// eager lookup (needed by the pipeline to feed OnCTIResolved's case D).
func (e *Engine) TookLookupAtPred() bool { return e.lookupAtPred }
