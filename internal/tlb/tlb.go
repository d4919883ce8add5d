// Package tlb models translation lookaside buffers: set-associative or fully
// associative single-level TLBs with LRU replacement, and the two-level
// organizations of the paper's §4.3.2 (looked up serially or in parallel).
//
// The TLB does not own the page table; a miss calls back into a walker
// provided by the caller (internal/vm) and charges the configured walk
// penalty. Energy is charged to an optional energy.Meter, one access per
// level probed and one refill per level filled, matching the paper's
// E = n_a·E_a + n_m·E_m accounting per structure.
package tlb

import (
	"fmt"
	"strconv"
	"strings"
	"unsafe"

	"itlbcfr/internal/energy"
)

// LevelConfig describes one TLB level.
type LevelConfig struct {
	Entries int
	Assoc   int // Assoc == Entries means fully associative
}

// Validate checks the level geometry.
func (lc LevelConfig) Validate() error {
	if lc.Entries < 1 {
		return fmt.Errorf("tlb: entries %d < 1", lc.Entries)
	}
	if lc.Assoc < 1 || lc.Assoc > lc.Entries {
		return fmt.Errorf("tlb: assoc %d out of range for %d entries", lc.Assoc, lc.Entries)
	}
	if lc.Entries%lc.Assoc != 0 {
		return fmt.Errorf("tlb: entries %d not divisible by assoc %d", lc.Entries, lc.Assoc)
	}
	sets := lc.Entries / lc.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("tlb: set count %d not a power of two", sets)
	}
	return nil
}

// Config describes a complete (possibly multi-level) TLB.
type Config struct {
	Levels []LevelConfig
	// Parallel selects parallel lookup of both levels of a two-level TLB
	// (energy-hungry, latency-friendly); false means serial lookup where
	// level 2 is probed only on a level-1 miss.
	Parallel bool
	// Level2Latency is the extra lookup latency (cycles) of a serial
	// level-2 probe. The paper optimistically assumes 1 (§4.3.2).
	Level2Latency int
	// MissPenalty is the page-walk latency in cycles (50 in Table 1).
	MissPenalty int
}

// Mono returns a single-level configuration with the paper's defaults.
func Mono(entries, assoc int) Config {
	return Config{
		Levels:      []LevelConfig{{Entries: entries, Assoc: assoc}},
		MissPenalty: 50,
	}
}

// TwoLevel returns a two-level serial configuration with the paper's
// optimistic single-cycle second-level probe.
func TwoLevel(l1Entries, l1Assoc, l2Entries, l2Assoc int, parallel bool) Config {
	return Config{
		Levels: []LevelConfig{
			{Entries: l1Entries, Assoc: l1Assoc},
			{Entries: l2Entries, Assoc: l2Assoc},
		},
		Parallel:      parallel,
		Level2Latency: 1,
		MissPenalty:   50,
	}
}

// ParseSpec parses the compact TLB geometry syntax the CLIs and the HTTP
// API share: "32" (fully associative), "16x2" (entries x associativity) and
// "1+32" (two-level serial, both levels fully associative). Callers decide
// what an empty spec means (usually the paper's default iTLB).
func ParseSpec(s string) (Config, error) {
	if strings.TrimSpace(s) == "" {
		return Config{}, fmt.Errorf("tlb: empty spec")
	}
	if lv := strings.Split(s, "+"); len(lv) == 2 {
		l1, err1 := strconv.Atoi(lv[0])
		l2, err2 := strconv.Atoi(lv[1])
		if err1 != nil || err2 != nil {
			return Config{}, fmt.Errorf("tlb: bad two-level spec %q", s)
		}
		return TwoLevel(l1, l1, l2, l2, false), nil
	}
	if xa := strings.Split(s, "x"); len(xa) == 2 {
		e, err1 := strconv.Atoi(xa[0])
		a, err2 := strconv.Atoi(xa[1])
		if err1 != nil || err2 != nil {
			return Config{}, fmt.Errorf("tlb: bad geometry spec %q", s)
		}
		return Mono(e, a), nil
	}
	e, err := strconv.Atoi(s)
	if err != nil {
		return Config{}, fmt.Errorf("tlb: bad spec %q", s)
	}
	return Mono(e, e), nil
}

// Spec renders the configuration in ParseSpec's compact syntax, reporting
// ok = false for configurations the syntax cannot express (parallel lookup,
// a set-associative second level, non-default latencies). For every config
// ParseSpec produces, Spec round-trips: ParseSpec(spec) yields c again.
func (c Config) Spec() (spec string, ok bool) {
	switch len(c.Levels) {
	case 1:
		if c.Parallel || c.Level2Latency != 0 || c.MissPenalty != 50 {
			return "", false
		}
		l := c.Levels[0]
		if l.Assoc == l.Entries {
			return fmt.Sprintf("%d", l.Entries), true
		}
		return fmt.Sprintf("%dx%d", l.Entries, l.Assoc), true
	case 2:
		if c.Parallel || c.Level2Latency != 1 || c.MissPenalty != 50 {
			return "", false
		}
		l1, l2 := c.Levels[0], c.Levels[1]
		if l1.Assoc != l1.Entries || l2.Assoc != l2.Entries {
			return "", false
		}
		return fmt.Sprintf("%d+%d", l1.Entries, l2.Entries), true
	}
	return "", false
}

// Validate checks the whole configuration.
func (c Config) Validate() error {
	if len(c.Levels) < 1 || len(c.Levels) > 2 {
		return fmt.Errorf("tlb: %d levels unsupported (1 or 2)", len(c.Levels))
	}
	for i, l := range c.Levels {
		if err := l.Validate(); err != nil {
			return fmt.Errorf("level %d: %w", i, err)
		}
	}
	if c.MissPenalty < 0 {
		return fmt.Errorf("tlb: negative miss penalty")
	}
	return nil
}

// EntriesPerLevel returns the entry counts, for energy-meter construction.
func (c Config) EntriesPerLevel() []int {
	out := make([]int, len(c.Levels))
	for i, l := range c.Levels {
		out[i] = l.Entries
	}
	return out
}

// AssocPerLevel returns the associativities, for energy-meter construction.
func (c Config) AssocPerLevel() []int {
	out := make([]int, len(c.Levels))
	for i, l := range c.Levels {
		out[i] = l.Assoc
	}
	return out
}

type entry struct {
	vpn   uint64
	pfn   uint64
	valid bool
	lru   uint64 // larger = more recently used
}

// idxAssocMin is the associativity at which a level maintains a VPN → way
// map beside the way array. The paper's TLBs are mostly fully associative
// (up to 128 ways); scanning them linearly on every lookup dominates the
// simulator's data path, while for the narrow set-associative shapes the
// scan is cheaper than hashing. The map is purely an index — hits, misses,
// LRU updates and victim choice are identical with and without it.
const idxAssocMin = 16

type level struct {
	cfg     LevelConfig
	sets    int
	ways    []entry          // sets × assoc, row-major
	idx     map[uint64]int32 // vpn → way index of the valid entry; nil for narrow assoc
	lruTick uint64

	// Most-recently-used lookup memo: way indices of the last two distinct
	// VPNs that hit. Entries are validated against the way array before use,
	// so they may go stale (eviction, invalidate, flush, restore) without any
	// explicit maintenance; a stale or colliding memo just falls through to
	// the exact path. Two slots cover the executor's two data streams.
	hotVPN [2]uint64
	hotIdx [2]int32
}

func newLevel(cfg LevelConfig) *level {
	l := &level{
		cfg:  cfg,
		sets: cfg.Entries / cfg.Assoc,
		ways: make([]entry, cfg.Entries),
	}
	if cfg.Assoc >= idxAssocMin {
		l.idx = make(map[uint64]int32, cfg.Entries)
	}
	return l
}

func (l *level) setBase(vpn uint64) int {
	return (int(vpn) & (l.sets - 1)) * l.cfg.Assoc
}

func (l *level) set(vpn uint64) []entry {
	b := l.setBase(vpn)
	return l.ways[b : b+l.cfg.Assoc]
}

func (l *level) lookup(vpn uint64) (uint64, bool) {
	// Memoized fast path; see the hotVPN/hotIdx field comment.
	if vpn == l.hotVPN[0] {
		if e := &l.ways[l.hotIdx[0]]; e.valid && e.vpn == vpn {
			l.lruTick++
			e.lru = l.lruTick
			return e.pfn, true
		}
	} else if vpn == l.hotVPN[1] {
		if e := &l.ways[l.hotIdx[1]]; e.valid && e.vpn == vpn {
			l.hotVPN[0], l.hotVPN[1] = l.hotVPN[1], l.hotVPN[0]
			l.hotIdx[0], l.hotIdx[1] = l.hotIdx[1], l.hotIdx[0]
			l.lruTick++
			e.lru = l.lruTick
			return e.pfn, true
		}
	}
	if l.idx != nil {
		i, ok := l.idx[vpn]
		if !ok {
			return 0, false
		}
		l.remember(vpn, i)
		e := &l.ways[i]
		l.lruTick++
		e.lru = l.lruTick
		return e.pfn, true
	}
	base := l.setBase(vpn)
	ws := l.ways[base : base+l.cfg.Assoc]
	for i := range ws {
		if ws[i].valid && ws[i].vpn == vpn {
			l.remember(vpn, int32(base+i))
			l.lruTick++
			ws[i].lru = l.lruTick
			return ws[i].pfn, true
		}
	}
	return 0, false
}

// hitRun applies k ≥ 1 back-to-back lookups of vpn. The first is a real
// lookup; a hit leaves vpn in memo slot 0, where each of the other k−1
// would hit again and only advance the tick and re-stamp the entry, so they
// collapse into one addition. A miss changes nothing, as k misses would.
func (l *level) hitRun(vpn, k uint64) {
	if _, ok := l.lookup(vpn); ok {
		l.lruTick += k - 1
		l.ways[l.hotIdx[0]].lru = l.lruTick
	}
}

// remember pushes a hit onto the two-slot memo.
func (l *level) remember(vpn uint64, idx int32) {
	l.hotVPN[1], l.hotIdx[1] = l.hotVPN[0], l.hotIdx[0]
	l.hotVPN[0], l.hotIdx[0] = vpn, idx
}

func (l *level) insert(vpn, pfn uint64) {
	ws := l.set(vpn)
	victim := 0
	for i := range ws {
		if !ws[i].valid {
			victim = i
			break
		}
		if ws[i].lru < ws[victim].lru {
			victim = i
		}
	}
	if l.idx != nil {
		if ws[victim].valid {
			delete(l.idx, ws[victim].vpn)
		}
		l.idx[vpn] = int32(l.setBase(vpn) + victim)
	}
	l.remember(vpn, int32(l.setBase(vpn)+victim))
	l.lruTick++
	ws[victim] = entry{vpn: vpn, pfn: pfn, valid: true, lru: l.lruTick}
}

func (l *level) invalidate(vpn uint64) bool {
	ws := l.set(vpn)
	for i := range ws {
		if ws[i].valid && ws[i].vpn == vpn {
			ws[i].valid = false
			if l.idx != nil {
				delete(l.idx, vpn)
			}
			return true
		}
	}
	return false
}

func (l *level) flush() {
	for i := range l.ways {
		l.ways[i].valid = false
	}
	if l.idx != nil {
		l.idx = make(map[uint64]int32, l.cfg.Entries)
	}
}

// reindex rebuilds the VPN map from the way array after a Restore.
func (l *level) reindex() {
	if l.idx == nil {
		return
	}
	l.idx = make(map[uint64]int32, l.cfg.Entries)
	for i := range l.ways {
		if l.ways[i].valid {
			l.idx[l.ways[i].vpn] = int32(i)
		}
	}
}

// Stats counts TLB activity per level plus walks.
type Stats struct {
	Accesses []uint64
	Hits     []uint64
	Walks    uint64
}

// TLB is a (possibly two-level) translation lookaside buffer.
type TLB struct {
	cfg    Config
	levels []*level
	stats  Stats
	meter  *energy.Meter // optional
}

// New builds a TLB. It panics on an invalid configuration, which indicates a
// programming error in the caller.
func New(cfg Config) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	t := &TLB{cfg: cfg}
	for _, lc := range cfg.Levels {
		t.levels = append(t.levels, newLevel(lc))
	}
	t.stats.Accesses = make([]uint64, len(cfg.Levels))
	t.stats.Hits = make([]uint64, len(cfg.Levels))
	return t
}

// AttachMeter directs per-access energy accounting to mt. The meter must have
// been built with the same level geometry (see Config.EntriesPerLevel).
func (t *TLB) AttachMeter(mt *energy.Meter) { t.meter = mt }

// Config returns the TLB's configuration.
func (t *TLB) Config() Config { return t.cfg }

// Result describes one lookup.
type Result struct {
	PFN uint64
	// HitLevel is the level that supplied the translation, or -1 if a page
	// walk was required.
	HitLevel int
	// ExtraCycles is the latency beyond a first-level hit: the serial
	// second-level probe and/or the walk penalty.
	ExtraCycles int
}

// Lookup translates vpn, walking the page table via walk on a full miss.
// The walker must always succeed (the synthetic OS maps all code/data pages);
// translation *faults* are modelled in internal/vm, not here.
func (t *TLB) Lookup(vpn uint64, walk func(vpn uint64) uint64) Result {
	// Monolithic TLBs (the common configuration) skip the level loop.
	if len(t.levels) == 1 {
		t.stats.Accesses[0]++
		if t.meter != nil {
			t.meter.AddAccess(0)
		}
		if pfn, ok := t.levels[0].lookup(vpn); ok {
			t.stats.Hits[0]++
			return Result{PFN: pfn, HitLevel: 0}
		}
		return t.walkFill(vpn, walk, t.cfg.MissPenalty)
	}
	if t.cfg.Parallel && len(t.levels) == 2 {
		return t.lookupParallel(vpn, walk)
	}
	for li, l := range t.levels {
		t.stats.Accesses[li]++
		if t.meter != nil {
			t.meter.AddAccess(li)
		}
		if pfn, ok := l.lookup(vpn); ok {
			t.stats.Hits[li]++
			extra := 0
			if li > 0 {
				extra = t.cfg.Level2Latency
				// Promote into level 1 so the working set migrates up.
				t.fill(0, vpn, pfn)
			}
			return Result{PFN: pfn, HitLevel: li, ExtraCycles: extra}
		}
	}
	return t.walkFill(vpn, walk, t.serialMissLatency())
}

// LookupRun performs exactly what n ≥ 1 back-to-back Lookup(vpn) calls
// would, with one real lookup. That lookup may walk and fill; it always
// leaves vpn in level 1, so the other n−1 are level-1 hits with no extra
// latency, charged in bulk: accesses, hits, energy and LRU recency. A serial
// TLB probes only level 1 for them; a parallel one probes level 2 as well,
// which ages vpn's entry there if it holds one. It returns the first
// lookup's Result, whose ExtraCycles is therefore the whole run's stall.
func (t *TLB) LookupRun(vpn, n uint64, walk func(vpn uint64) uint64) Result {
	if n == 0 {
		panic("tlb: LookupRun of zero lookups")
	}
	r := t.Lookup(vpn, walk)
	if n == 1 {
		return r
	}
	k := n - 1
	for li := range t.levels {
		if li > 0 && !t.cfg.Parallel {
			break
		}
		t.stats.Accesses[li] += k
		if t.meter != nil {
			t.meter.AddAccesses(li, k)
		}
		t.levels[li].hitRun(vpn, k)
	}
	t.stats.Hits[0] += k
	return r
}

func (t *TLB) lookupParallel(vpn uint64, walk func(vpn uint64) uint64) Result {
	// Both levels are probed (and both charged) every lookup.
	var pfn uint64
	hit := -1
	for li := len(t.levels) - 1; li >= 0; li-- {
		t.stats.Accesses[li]++
		if t.meter != nil {
			t.meter.AddAccess(li)
		}
		if p, ok := t.levels[li].lookup(vpn); ok {
			pfn, hit = p, li
		}
	}
	if hit >= 0 {
		t.stats.Hits[hit]++
		if hit > 0 {
			t.fill(0, vpn, pfn)
		}
		// Parallel probe: no extra latency for a level-2 hit.
		return Result{PFN: pfn, HitLevel: hit}
	}
	return t.walkFill(vpn, walk, t.cfg.MissPenalty)
}

func (t *TLB) serialMissLatency() int {
	lat := t.cfg.MissPenalty
	if len(t.levels) > 1 {
		lat += t.cfg.Level2Latency
	}
	return lat
}

func (t *TLB) walkFill(vpn uint64, walk func(vpn uint64) uint64, lat int) Result {
	t.stats.Walks++
	pfn := walk(vpn)
	for li := range t.levels {
		t.fill(li, vpn, pfn)
	}
	return Result{PFN: pfn, HitLevel: -1, ExtraCycles: lat}
}

func (t *TLB) fill(li int, vpn, pfn uint64) {
	t.levels[li].insert(vpn, pfn)
	if t.meter != nil {
		t.meter.AddMiss(li)
	}
}

// State is a deep snapshot of a TLB's contents and statistics, taken with
// Snapshot and reinstated with Restore. It shares no memory with the TLB it
// came from, so one snapshot can seed many TLBs concurrently.
type State struct {
	ways  [][]entry // per level
	ticks []uint64
	stats Stats
}

// Snapshot captures the TLB's full state: every entry of every level, the
// per-level LRU ticks and the statistics.
func (t *TLB) Snapshot() *State {
	s := &State{
		ticks: make([]uint64, len(t.levels)),
		stats: t.Stats(),
	}
	for _, l := range t.levels {
		s.ways = append(s.ways, append([]entry(nil), l.ways...))
	}
	for i, l := range t.levels {
		s.ticks[i] = l.lruTick
	}
	return s
}

// Restore overwrites the TLB's state from a snapshot. The snapshot must come
// from an identically configured TLB; the state is copied, never aliased.
func (t *TLB) Restore(s *State) error {
	if len(s.ways) != len(t.levels) {
		return fmt.Errorf("tlb: snapshot has %d levels, TLB has %d", len(s.ways), len(t.levels))
	}
	for i, l := range t.levels {
		if len(s.ways[i]) != len(l.ways) {
			return fmt.Errorf("tlb: snapshot level %d has %d entries, TLB has %d (geometry mismatch)",
				i, len(s.ways[i]), len(l.ways))
		}
		copy(l.ways, s.ways[i])
		l.lruTick = s.ticks[i]
		l.reindex()
	}
	copy(t.stats.Accesses, s.stats.Accesses)
	copy(t.stats.Hits, s.stats.Hits)
	t.stats.Walks = s.stats.Walks
	return nil
}

// Bytes is the snapshot's approximate resident size.
func (s *State) Bytes() int {
	n := int(unsafe.Sizeof(*s)) + 8*cap(s.ticks) + 8*(cap(s.stats.Accesses)+cap(s.stats.Hits))
	for _, w := range s.ways {
		n += int(unsafe.Sizeof(entry{})) * cap(w)
	}
	return n
}

// Invalidate removes vpn from every level, returning whether any entry was
// present. The OS uses this when remapping a page (§3.2).
func (t *TLB) Invalidate(vpn uint64) bool {
	any := false
	for _, l := range t.levels {
		if l.invalidate(vpn) {
			any = true
		}
	}
	return any
}

// Flush empties the TLB (context switch without ASIDs).
func (t *TLB) Flush() {
	for _, l := range t.levels {
		l.flush()
	}
}

// Stats returns a copy of the accumulated statistics.
func (t *TLB) Stats() Stats {
	s := Stats{
		Accesses: append([]uint64(nil), t.stats.Accesses...),
		Hits:     append([]uint64(nil), t.stats.Hits...),
		Walks:    t.stats.Walks,
	}
	return s
}

// ResetStats zeroes the counters without touching TLB contents.
func (t *TLB) ResetStats() {
	for i := range t.stats.Accesses {
		t.stats.Accesses[i], t.stats.Hits[i] = 0, 0
	}
	t.stats.Walks = 0
}

// MissRate returns the fraction of lookups that required a walk.
func (t *TLB) MissRate() float64 {
	if t.stats.Accesses[0] == 0 {
		return 0
	}
	return float64(t.stats.Walks) / float64(t.stats.Accesses[0])
}
