package core

import (
	"reflect"
	"testing"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/bpred"
	"itlbcfr/internal/cache"
	"itlbcfr/internal/energy"
	"itlbcfr/internal/isa"
	"itlbcfr/internal/tlb"
	"itlbcfr/internal/vm"
)

// FuzzParseScheme: the parser never panics, and every accepted name
// round-trips through String and through the text marshaling the JSON wire
// formats rely on.
func FuzzParseScheme(f *testing.F) {
	for _, seed := range []string{
		"Base", "OPT", "HoA", "SoCA", "SoLA", "IA",
		"base", "ia", "SOCA", "sOlA", "", "XX", "scheme(3)", " IA", "IA ", "\x00",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sch, err := ParseScheme(s)
		if err != nil {
			return
		}
		if !sch.Known() {
			t.Fatalf("ParseScheme(%q) = %d, accepted but unknown", s, int(sch))
		}
		again, err := ParseScheme(sch.String())
		if err != nil || again != sch {
			t.Fatalf("round-trip drift: %q -> %v -> %q -> %v (%v)", s, sch, sch.String(), again, err)
		}
		txt, err := sch.MarshalText()
		if err != nil {
			t.Fatalf("known scheme %v failed MarshalText: %v", sch, err)
		}
		var um Scheme
		if err := um.UnmarshalText(txt); err != nil || um != sch {
			t.Fatalf("text round-trip drift: %v -> %q -> %v (%v)", sch, txt, um, err)
		}
	})
}

// newEngineTLB builds an engine over an iTLB of geometry cfg, with its own
// energy meter and address space.
func newEngineTLB(s Scheme, style cache.Style, cfg tlb.Config) (*Engine, *energy.Meter, *vm.AddressSpace) {
	t := tlb.New(cfg)
	m := energy.NewMeter(energy.NewModel(energy.DefaultTech), cfg.EntriesPerLevel(), cfg.AssocPerLevel())
	t.AttachMeter(m)
	space := vm.New(addr.DefaultGeometry, 1)
	return NewEngine(s, style, addr.DefaultGeometry, t, space, m), m, space
}

// refOutcome is what one reference fetch returns.
type refOutcome struct {
	PFN         addr.PAddr
	StallCycles int
	UsedTLB     bool
}

// refFetchTranslate is the engine's former per-fetch scheme switch for the
// eager styles, kept as the scalar reference that Fetch must match: one call
// per fetched instruction.
func refFetchTranslate(e *Engine, pc addr.VAddr, sequential, wrongPath bool) refOutcome {
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
		return refOutcome{PFN: e.geom.Translate(pfn, pc), StallCycles: stall, UsedTLB: true}

	case OPT:
		if wrongPath {
			return refOutcome{PFN: e.geom.Translate(e.space.Walk(vpn), pc)}
		}
		if e.cfr.Covers(vpn) {
			return refCFRHit(e, pc)
		}
		pfn, stall := e.lookup(vpn, cause)
		return refOutcome{PFN: e.geom.Translate(pfn, pc), StallCycles: stall, UsedTLB: true}

	case HoA:
		e.stats.Comparisons++
		if e.meter != nil {
			e.meter.AddComparisons(1)
		}
		if e.cfr.Covers(vpn) {
			return refCFRHit(e, pc)
		}
		pfn, stall := e.lookup(vpn, cause)
		return refOutcome{PFN: e.geom.Translate(pfn, pc), StallCycles: stall, UsedTLB: true}

	case SoCA, SoLA, IA:
		if e.pending || !e.cfr.Valid {
			pfn, stall := e.lookup(vpn, e.pendingOr(cause))
			return refOutcome{PFN: e.geom.Translate(pfn, pc), StallCycles: stall, UsedTLB: true}
		}
		if e.cfr.VPN != vpn {
			if !wrongPath {
				e.stats.StaleUses++
			}
			return refOutcome{PFN: e.geom.Translate(e.cfr.PFN, pc)}
		}
		return refCFRHit(e, pc)
	}
	panic("core: unreachable scheme")
}

func refCFRHit(e *Engine, pc addr.VAddr) refOutcome {
	e.stats.CFRHits++
	if e.meter != nil {
		e.meter.AddCFRReads(1)
	}
	return refOutcome{PFN: e.geom.Translate(e.cfr.PFN, pc)}
}

// refOnFetchObserved is the former lazy-style per-fetch event: HoA's
// comparator, and nothing for the other schemes.
func refOnFetchObserved(e *Engine, pc addr.VAddr) {
	if e.style != cache.VIVT || e.scheme != HoA {
		return
	}
	e.stats.Comparisons++
	if e.meter != nil {
		e.meter.AddComparisons(1)
	}
}

// FuzzFetchMatchesScalarReference drives two engines with one random event
// stream and checks that every Fetch(pc, n) on one does exactly what n
// single-fetch reference calls do on the other: the frame, the summed stall,
// whether any consulted the iTLB, and afterwards the statistics, the CFR
// state, the energy meter, the iTLB contents and the page-table statistics.
// Each op is 4 bytes, op a b c; op&7 selects the event:
//
//	0-3  a run of n same-page fetches at page a%8, byte offset 16·b plus
//	     4·(op>>6); n is the rest of the page if op&8, else 1 + c%rest;
//	     op&16 marks the first fetch sequential, op&32 the run wrong-path
//	4    checkpoint, then OnCTIPredicted for a branch at page a%8 to target
//	     page c%8 (op&8 taken, op&16 unconditional, op&32 in-page bit,
//	     op&64 a BOUNDARY stub, op&128 a same-page target)
//	5    squash the in-flight branch: Restore and OnCTIResolved (op&8 taken)
//	6    vm Remap of page a%8 (refused while pinned or unmapped)
//	7    OnContextSwitch if op&8, else a VI-VT iL1 miss at page a%8
//	     (op&16 sequential, op&32 wrong-path); an eager style switches
func FuzzFetchMatchesScalarReference(f *testing.F) {
	stream := []byte{
		0x10, 1, 0, 7, // cold sequential run on page 1
		0x0c, 1, 9, 2, // predict a branch from page 1 taken to page 2
		0x00, 2, 0, 3, // redirected run on page 2
		0x08, 2, 200, 0, // run to the end of page 2
		0x05, 0, 0, 0, // squash: back to page 1, not taken
		0x28, 5, 3, 0, // wrong-path run on page 5 to its end
		0x56, 2, 0, 0, // remap page 2
		0x18, 1, 30, 0, // sequential run on page 1 to its end
		0xcc, 1, 1, 1, // predicted-taken stub, same page
		0x05, 1, 0, 0, // squash, not taken
		0x0f, 0, 0, 0, // context switch
		0x07, 3, 0, 0, // VI-VT miss on page 3, or a context switch
		0x11, 3, 4, 40, // sequential run on page 3
	}
	for s := range numSchemes {
		for style := range 3 {
			f.Add(uint8(s), uint8(style), uint8(int(s)+style), stream)
		}
	}
	tlbs := []tlb.Config{tlb.Mono(32, 32), tlb.Mono(4, 4), tlb.Mono(4, 1),
		tlb.TwoLevel(2, 2, 8, 8, false), tlb.TwoLevel(2, 2, 8, 8, true)}
	styles := []cache.Style{cache.VIVT, cache.VIPT, cache.PIPT}
	f.Fuzz(func(t *testing.T, scheme, style, shape uint8, ops []byte) {
		sch, sty, cfg := Scheme(scheme%uint8(numSchemes)), styles[style%3], tlbs[int(shape)%len(tlbs)]
		e, em, es := newEngineTLB(sch, sty, cfg)
		r, rm, rs := newEngineTLB(sch, sty, cfg)
		geom := addr.DefaultGeometry
		type branch struct {
			in           *isa.Inst
			pc           addr.VAddr
			eck, rck     State
			eTook, rTook bool
		}
		var inFlight *branch
		ops = ops[:min(len(ops), 4*256)] // long streams only slow the search
		for i := 0; i+4 <= len(ops); i += 4 {
			op, a, b, c := ops[i], ops[i+1], ops[i+2], ops[i+3]
			page := uint64(a % 8)
			switch op & 7 {
			case 0, 1, 2, 3:
				off := uint64(b)*16 + uint64(op>>6)*addr.InstBytes
				pc := pcIn(page, off)
				rest := uint64(geom.PageBytes()-off) / addr.InstBytes
				n := rest
				if op&8 == 0 {
					n = 1 + uint64(c)%rest
				}
				seq, wrong := op&16 != 0, op&32 != 0
				pfn, stall, used := e.Fetch(pc, n, seq, wrong)
				var want refOutcome
				for k := uint64(0); k < n; k++ {
					kpc := pc + addr.VAddr(k)*addr.InstBytes
					var out refOutcome
					if sty == cache.VIVT {
						refOnFetchObserved(r, kpc)
					} else {
						out = refFetchTranslate(r, kpc, seq || k > 0, wrong)
						out.PFN = addr.PAddr(uint64(out.PFN) >> geom.PageBits)
					}
					if k > 0 && out.PFN != want.PFN {
						t.Fatalf("op %d: reference frame changed inside the run", i/4)
					}
					want.PFN = out.PFN
					want.StallCycles += out.StallCycles
					want.UsedTLB = want.UsedTLB || out.UsedTLB
				}
				if got := (refOutcome{addr.PAddr(pfn), stall, used}); got != want {
					t.Fatalf("op %d: Fetch(%#x, %d, %v, %v) = %+v, reference %+v",
						i/4, uint64(pc), n, seq, wrong, got, want)
				}
			case 4:
				target := pcIn(uint64(c%8), uint64(b)*16)
				if op&128 != 0 {
					target = pcIn(page, uint64(b)*16)
				}
				kind := isa.CondBranch
				if op&16 != 0 {
					kind = isa.Jump
				}
				br := &branch{
					in: &isa.Inst{Kind: kind, Target: target, InPage: op&32 != 0, BoundaryStub: op&64 != 0},
					pc: pcIn(page, 4*uint64(c)), eck: e.Checkpoint(), rck: r.Checkpoint(),
				}
				pred := bpred.Prediction{Taken: op&8 != 0, Target: target, BTBHit: true}
				if es, rs := e.OnCTIPredicted(br.in, pred), r.OnCTIPredicted(br.in, pred); es != rs {
					t.Fatalf("op %d: OnCTIPredicted stall %d, reference %d", i/4, es, rs)
				}
				br.eTook, br.rTook = e.TookLookupAtPred(), r.TookLookupAtPred()
				inFlight = br
			case 5:
				if inFlight == nil {
					continue
				}
				next, tk := inFlight.pc+addr.InstBytes, op&8 != 0
				if tk {
					next = inFlight.in.Target
				}
				e.Restore(inFlight.eck)
				r.Restore(inFlight.rck)
				if es, rs := e.OnCTIResolved(inFlight.in, tk, next, inFlight.eTook),
					r.OnCTIResolved(inFlight.in, tk, next, inFlight.rTook); es != rs {
					t.Fatalf("op %d: OnCTIResolved stall %d, reference %d", i/4, es, rs)
				}
				inFlight = nil
			case 6:
				_, eerr := es.Remap(page)
				_, rerr := rs.Remap(page)
				if (eerr == nil) != (rerr == nil) {
					t.Fatalf("op %d: remap of page %d: %v, reference %v", i/4, page, eerr, rerr)
				}
			case 7:
				if op&8 != 0 || sty != cache.VIVT {
					e.OnContextSwitch()
					r.OnContextSwitch()
					continue
				}
				pc := pcIn(page, uint64(b)*16)
				epa, est := e.OnIL1Miss(pc, op&16 != 0, op&32 != 0)
				rpa, rst := r.OnIL1Miss(pc, op&16 != 0, op&32 != 0)
				if epa != rpa || est != rst {
					t.Fatalf("op %d: OnIL1Miss = %#x, %d, reference %#x, %d", i/4, uint64(epa), est, uint64(rpa), rst)
				}
			}
			if e.Stats() != r.Stats() || e.Checkpoint() != r.Checkpoint() {
				t.Fatalf("op %d: engine %+v %+v, reference %+v %+v", i/4, e.Stats(), e.Checkpoint(), r.Stats(), r.Checkpoint())
			}
			if !reflect.DeepEqual(em, rm) || es.Stats() != rs.Stats() {
				t.Fatalf("op %d: meter %+v / vm %+v, reference %+v / %+v", i/4, *em, es.Stats(), *rm, rs.Stats())
			}
			if !reflect.DeepEqual(e.itlb.Snapshot(), r.itlb.Snapshot()) {
				t.Fatalf("op %d: iTLB contents differ from the reference", i/4)
			}
		}
	})
}
