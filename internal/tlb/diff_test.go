package tlb

import (
	"reflect"
	"sort"
	"testing"

	"itlbcfr/internal/energy"
)

// refTLB is a deliberately naive reference model of the TLB, shaped like a
// textbook software TLB: each entry carries an order counter that a use
// resets to 0 while every other valid entry of its set ages by one, and a
// fill replaces the first invalid way, else the oldest. There is no MRU
// memo, no VPN → way map and no single-level fast path, so the fuzz target
// below can check that those layers never change a result, a statistic or
// an energy charge.
type refEntry struct {
	vpn, pfn uint64
	valid    bool
	order    uint64 // uses of the set since this entry's last use
}

type refLevel struct {
	sets, assoc int
	entries     []refEntry
}

func (l *refLevel) set(vpn uint64) []refEntry {
	b := int(vpn%uint64(l.sets)) * l.assoc
	return l.entries[b : b+l.assoc]
}

// setOrder marks way used as the set's most recently used entry.
func setOrder(set []refEntry, used int) {
	for i := range set {
		if i == used {
			set[i].order = 0
		} else if set[i].valid {
			set[i].order++
		}
	}
}

func (l *refLevel) lookup(vpn uint64) (uint64, bool) {
	set := l.set(vpn)
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			setOrder(set, i)
			return set[i].pfn, true
		}
	}
	return 0, false
}

func (l *refLevel) load(vpn, pfn uint64) {
	set := l.set(vpn)
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if victim < 0 || set[i].order > set[victim].order {
			victim = i
		}
	}
	set[victim] = refEntry{vpn: vpn, pfn: pfn, valid: true}
	setOrder(set, victim)
}

// recency lists each set's valid VPNs, most recently used first.
func (l *refLevel) recency() [][]uint64 {
	out := make([][]uint64, l.sets)
	for si := range out {
		set := append([]refEntry(nil), l.entries[si*l.assoc:(si+1)*l.assoc]...)
		sort.Slice(set, func(a, b int) bool { return set[a].order < set[b].order })
		for _, e := range set {
			if e.valid {
				out[si] = append(out[si], e.vpn)
			}
		}
	}
	return out
}

// recency lists each set of a production level by descending LRU stamp, the
// same shape as refLevel.recency. Two valid entries of a set sharing a stamp
// would leave victim choice to way order, so a tie is reported as a
// duplicated sentinel that never matches the reference.
func recency(l *level) [][]uint64 {
	out := make([][]uint64, l.sets)
	for si := range out {
		set := append([]entry(nil), l.ways[si*l.cfg.Assoc:(si+1)*l.cfg.Assoc]...)
		sort.Slice(set, func(a, b int) bool { return set[a].lru > set[b].lru })
		for k, e := range set {
			if !e.valid {
				continue
			}
			if k > 0 && set[k-1].valid && set[k-1].lru == e.lru {
				out[si] = append(out[si], ^uint64(0))
			}
			out[si] = append(out[si], e.vpn)
		}
	}
	return out
}

type refTLB struct {
	cfg    Config
	levels []*refLevel
	stats  Stats
	acc    []uint64 // energy-meter accesses per level
	miss   []uint64 // energy-meter refills per level
	walk   func(vpn uint64) uint64
}

func newRefTLB(cfg Config, walk func(vpn uint64) uint64) *refTLB {
	r := &refTLB{
		cfg:  cfg,
		walk: walk,
		acc:  make([]uint64, len(cfg.Levels)),
		miss: make([]uint64, len(cfg.Levels)),
		stats: Stats{
			Accesses: make([]uint64, len(cfg.Levels)),
			Hits:     make([]uint64, len(cfg.Levels)),
		},
	}
	for _, lc := range cfg.Levels {
		r.levels = append(r.levels, &refLevel{
			sets:    lc.Entries / lc.Assoc,
			assoc:   lc.Assoc,
			entries: make([]refEntry, lc.Entries),
		})
	}
	return r
}

func (r *refTLB) probe(li int, vpn uint64) (uint64, bool) {
	r.stats.Accesses[li]++
	r.acc[li]++
	return r.levels[li].lookup(vpn)
}

func (r *refTLB) load(li int, vpn, pfn uint64) {
	r.levels[li].load(vpn, pfn)
	r.miss[li]++
}

func (r *refTLB) lookup(vpn uint64) Result {
	hit, pfn := -1, uint64(0)
	if r.cfg.Parallel {
		// Every level is probed; the lowest level that hits supplies it.
		for li := len(r.levels) - 1; li >= 0; li-- {
			if p, ok := r.probe(li, vpn); ok {
				hit, pfn = li, p
			}
		}
	} else {
		for li := range r.levels {
			if p, ok := r.probe(li, vpn); ok {
				hit, pfn = li, p
				break
			}
		}
	}
	if hit < 0 {
		r.stats.Walks++
		pfn = r.walk(vpn)
		for li := range r.levels {
			r.load(li, vpn, pfn)
		}
		lat := r.cfg.MissPenalty
		if !r.cfg.Parallel && len(r.levels) > 1 {
			lat += r.cfg.Level2Latency
		}
		return Result{PFN: pfn, HitLevel: -1, ExtraCycles: lat}
	}
	r.stats.Hits[hit]++
	extra := 0
	if hit > 0 {
		r.load(0, vpn, pfn)
		if !r.cfg.Parallel {
			extra = r.cfg.Level2Latency
		}
	}
	return Result{PFN: pfn, HitLevel: hit, ExtraCycles: extra}
}

func (r *refTLB) invalidate(vpn uint64) bool {
	any := false
	for _, l := range r.levels {
		set := l.set(vpn)
		for i := range set {
			if set[i].valid && set[i].vpn == vpn {
				set[i].valid = false
				any = true
			}
		}
	}
	return any
}

func (r *refTLB) flush() {
	for _, l := range r.levels {
		for i := range l.entries {
			l.entries[i].valid = false
		}
	}
}

func (r *refTLB) resetStats() {
	for i := range r.stats.Accesses {
		r.stats.Accesses[i], r.stats.Hits[i] = 0, 0
	}
	r.stats.Walks = 0
}

// fuzzConfigs falls on both sides of idxAssocMin (linear scan vs. VPN → way
// map) and covers every lookup organization: the single-level fast path
// (direct-mapped, set-associative, fully associative), serial two-level with
// promotion, and parallel two-level. span is the VPN range each config is
// driven over: a little beyond its capacity, so hits and evictions both
// happen.
var fuzzConfigs = []struct {
	cfg  Config
	span uint64
}{
	{Mono(4, 1), 8},
	{Mono(8, 2), 16},
	{Mono(32, 32), 40},
	{Mono(128, 128), 192},
	{TwoLevel(1, 1, 32, 32, false), 40},
	{TwoLevel(4, 4, 32, 32, true), 40},
}

// runLookupDiff drives one op stream through the production TLB and the
// reference, failing on the first divergence. data[0] picks the config; each
// op is two bytes, an opcode and a VPN (mod the config's span). Opcodes
// 176..239 are LookupRun with n = opcode−175 (1..64), which the reference
// performs as n single lookups. A second production TLB, scalar, also
// performs them as n Lookups: LRU stamps and ticks are absolute, so the
// order the reference checks cannot see one that drifts, and the scalar
// twin pins every way and tick of the TLB under test to it.
func runLookupDiff(t *testing.T, data []byte) {
	if len(data) < 1 {
		return
	}
	fc := fuzzConfigs[int(data[0])%len(fuzzConfigs)]
	cfg := fc.cfg
	// Each walk hands out a fresh frame, so a translation that outlives its
	// invalidation shows up as a wrong PFN.
	counterWalk := func() func(uint64) uint64 {
		var n uint64
		return func(uint64) uint64 { n++; return 1<<20 + n }
	}
	walk := counterWalk()
	meter := energy.NewMeter(energy.NewModel(energy.DefaultTech), cfg.EntriesPerLevel(), cfg.AssocPerLevel())
	tl := New(cfg)
	tl.AttachMeter(meter)
	ref := newRefTLB(cfg, counterWalk())
	scalar, scalarWalk := New(cfg), counterWalk()
	for i := 1; i+1 < len(data); i += 2 {
		op, vpn := data[i], uint64(data[i+1])%fc.span
		switch {
		case op < 176:
			scalar.Lookup(vpn, scalarWalk)
			if got, want := tl.Lookup(vpn, walk), ref.lookup(vpn); got != want {
				t.Fatalf("op %d: Lookup(%d) = %+v, reference %+v", i/2, vpn, got, want)
			}
		case op < 240:
			n := uint64(op) - 175
			for j := uint64(0); j < n; j++ {
				scalar.Lookup(vpn, scalarWalk)
			}
			got, want := tl.LookupRun(vpn, n, walk), ref.lookup(vpn)
			if got != want {
				t.Fatalf("op %d: LookupRun(%d, %d) = %+v, reference's first lookup %+v", i/2, vpn, n, got, want)
			}
			for j := uint64(1); j < n; j++ {
				if r := ref.lookup(vpn); r != (Result{PFN: want.PFN}) {
					t.Fatalf("op %d: reference lookup %d of %d = %+v, want a level-1 hit on %#x",
						i/2, j+1, n, r, want.PFN)
				}
			}
		case op < 252:
			scalar.Invalidate(vpn)
			if got, want := tl.Invalidate(vpn), ref.invalidate(vpn); got != want {
				t.Fatalf("op %d: Invalidate(%d) = %v, reference %v", i/2, vpn, got, want)
			}
		case op == 252:
			scalar.Flush()
			tl.Flush()
			ref.flush()
		case op == 253:
			scalar.ResetStats()
			tl.ResetStats()
			ref.resetStats()
		default:
			fresh := New(cfg)
			fresh.AttachMeter(meter)
			if err := fresh.Restore(tl.Snapshot()); err != nil {
				t.Fatalf("op %d: Restore: %v", i/2, err)
			}
			tl = fresh
		}
		if got := tl.Stats(); !reflect.DeepEqual(got, ref.stats) {
			t.Fatalf("op %d: stats %+v, reference %+v", i/2, got, ref.stats)
		}
		for li := range cfg.Levels {
			if got, want := recency(tl.levels[li]), ref.levels[li].recency(); !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d: level %d recency %v, reference %v", i/2, li, got, want)
			}
			l, sl := tl.levels[li], scalar.levels[li]
			if l.lruTick != sl.lruTick || !reflect.DeepEqual(l.ways, sl.ways) {
				t.Fatalf("op %d: level %d ways or tick (%d) differ from single lookups' (%d)",
					i/2, li, l.lruTick, sl.lruTick)
			}
		}
	}
	if !reflect.DeepEqual(meter.Accesses, ref.acc) || !reflect.DeepEqual(meter.Misses, ref.miss) {
		t.Fatalf("meter accesses %v misses %v, reference %v %v",
			meter.Accesses, meter.Misses, ref.acc, ref.miss)
	}
}

// FuzzLookupMatchesReference asserts the memoized, indexed TLB and the naive
// order-counter reference produce identical Results, Stats and energy-meter
// counts on arbitrary streams of lookups, bulk lookup runs, invalidations,
// flushes, statistic resets and snapshot round-trips.
func FuzzLookupMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 9, 0, 1, 0, 9, 240, 1, 0, 1})
	f.Add([]byte{1, 0, 0, 0, 8, 0, 0, 0, 16, 0, 8, 255, 0, 0, 0, 0, 16})
	f.Add([]byte{4, 0, 3, 0, 4, 0, 3, 252, 0, 0, 3, 253, 0, 0, 4})
	f.Add([]byte{5, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 1, 254, 0, 0, 1, 0, 6})
	f.Add([]byte{4, 0, 1, 0, 2, 200, 1, 0, 2, 239, 3, 0, 1, 176, 2})
	f.Add([]byte{5, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 210, 1, 0, 6, 230, 2})
	f.Fuzz(runLookupDiff)
}

// TestLookupMatchesReferenceSweep is the deterministic always-on slice of
// the fuzz target: a fixed LCG stream per config, long enough to cycle each
// through hits, misses, evictions, promotions and every maintenance op.
func TestLookupMatchesReferenceSweep(t *testing.T) {
	for seed := range fuzzConfigs {
		data := make([]byte, 1+2*8192)
		data[0] = byte(seed)
		x := uint32(seed)*2654435761 + 12345
		for i := 1; i < len(data); i++ {
			x = x*1664525 + 1013904223
			data[i] = byte(x >> 24)
		}
		runLookupDiff(t, data)
	}
}
