// Package cache models set-associative caches with LRU replacement.
//
// The same structure serves the iL1, dL1 and unified L2 of the paper's
// Table 1. Cache addressing style (VI-VT, VI-PT, PI-PT — §2 of the paper) is
// a property of *how the caller forms the index and tag*, not of the array
// itself, so Access takes the two addresses separately: the pipeline passes
// (virtual, virtual) for VI-VT, (virtual, physical) for VI-PT and
// (physical, physical) for PI-PT.
package cache

import (
	"fmt"
	"strings"
	"unsafe"
)

// Style enumerates iL1 lookup disciplines (§2).
type Style int

const (
	// VIVT indexes and tags with the virtual address; the iTLB is needed
	// only on a miss (StrongARM-style).
	VIVT Style = iota
	// VIPT indexes with the virtual address and tags with the physical
	// address; the iTLB is probed in parallel on every fetch.
	VIPT
	// PIPT indexes and tags with the physical address; translation
	// serializes before cache indexing.
	PIPT
)

func (s Style) String() string {
	switch s {
	case VIVT:
		return "VI-VT"
	case VIPT:
		return "VI-PT"
	case PIPT:
		return "PI-PT"
	}
	return fmt.Sprintf("style(%d)", int(s))
}

// ParseStyle converts a style name to a Style; dashes are optional and case
// is ignored ("VI-PT", "vipt").
func ParseStyle(s string) (Style, error) {
	switch strings.ToUpper(strings.ReplaceAll(s, "-", "")) {
	case "VIVT":
		return VIVT, nil
	case "VIPT":
		return VIPT, nil
	case "PIPT":
		return PIPT, nil
	}
	return 0, fmt.Errorf("cache: unknown style %q (VI-VT, VI-PT, PI-PT)", s)
}

// Known reports whether s is one of the defined styles.
func (s Style) Known() bool { return s >= VIVT && s <= PIPT }

// MarshalText encodes the style by name, so JSON carries "VI-PT" rather
// than an ordinal that would silently re-map if the constant order changed.
func (s Style) MarshalText() ([]byte, error) {
	if !s.Known() {
		return nil, fmt.Errorf("cache: cannot marshal unknown style %d", int(s))
	}
	return []byte(s.String()), nil
}

// UnmarshalText decodes a style name.
func (s *Style) UnmarshalText(text []byte) error {
	st, err := ParseStyle(string(text))
	if err != nil {
		return err
	}
	*s = st
	return nil
}

// Config describes one cache.
type Config struct {
	SizeBytes  int
	BlockBytes int
	Assoc      int
	// LatencyCycles is the hit latency.
	LatencyCycles int
	// WriteBack enables dirty-bit tracking and write-back victims.
	WriteBack bool
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.BlockBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.SizeBytes%(c.BlockBytes*c.Assoc) != 0 {
		return fmt.Errorf("cache: size %d not divisible by block*assoc", c.SizeBytes)
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache: block size %d not a power of two", c.BlockBytes)
	}
	sets := c.SizeBytes / (c.BlockBytes * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.BlockBytes * c.Assoc) }

// Line state flags, stored in the high bits of each packed tag word. Block
// numbers are addresses shifted right by blockBits, far below 2^62 for any
// address space this simulator models, so the flags can never collide with
// tag bits.
const (
	validFlag = 1 << 63
	dirtyFlag = 1 << 62
)

// Stats counts cache activity.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	WriteBacks uint64
}

// Cache is a set-associative, LRU, optionally write-back cache.
//
// Line state is held struct-of-arrays — parallel tag and LRU slices indexed
// by set*assoc+way — rather than as a slice of line structs, with the valid
// and dirty bits packed into the high bits of each tag word: a probe touches
// only the dense tag array (8 bytes per way, both ways of a 2-way set on one
// host cache line) and a whole-way match is a single masked compare, which
// keeps more of the simulated cache's directory in the host's cache. A
// same-block memo (hotIB/hotTB/hotWay) short-circuits the set search entirely
// when an access lands in the block the previous access hit or filled — the
// dominant pattern for the dL1 under streaming loads and for back-to-back
// fetch fills.
type Cache struct {
	cfg       Config
	sets      int
	assoc     int
	writeBack bool
	blockBits uint
	setMask   uint64

	// Struct-of-arrays line state, indexed set*assoc+way. A tags word is
	// validFlag|dirtyFlag|block-number; a valid clean way holding block b
	// compares equal to b|validFlag after masking off dirtyFlag.
	tags []uint64
	lru  []uint64

	tick  uint64
	stats Stats

	// Same-block memo: index block, tag block and way of the most recent
	// access (hit or fill). Every fill rewrites it and Flush/Restore drop
	// it, so while hotOK is set, way hotWay is guaranteed valid and to hold
	// tag hotTB — the memo can never produce a false hit.
	hotIB  uint64
	hotTB  uint64
	hotWay int32
	hotOK  bool
}

// New builds a cache, panicking on invalid geometry (a programming error).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	bb := uint(0)
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		bb++
	}
	n := cfg.Sets() * cfg.Assoc
	return &Cache{
		cfg:       cfg,
		sets:      cfg.Sets(),
		assoc:     cfg.Assoc,
		writeBack: cfg.WriteBack,
		blockBits: bb,
		setMask:   uint64(cfg.Sets() - 1),
		tags:      make([]uint64, n),
		lru:       make([]uint64, n),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Result describes one access.
type Result struct {
	Hit bool
	// WriteBack reports that a dirty victim was evicted and must be written
	// to the next level.
	WriteBack bool
}

// Access looks up the block containing the address. indexAddr selects the
// set, tagAddr provides the tag (see package comment). On a miss the block is
// filled. write marks the block dirty (for write-back caches). The memo check
// and full lookup share one function body deliberately: Access is too large
// to inline either way, and a single frame keeps the cold path one call deep.
func (c *Cache) Access(indexAddr, tagAddr uint64, write bool) Result {
	ib := indexAddr >> c.blockBits
	tb := tagAddr >> c.blockBits
	c.stats.Accesses++
	c.tick++
	if c.hotOK && ib == c.hotIB && tb == c.hotTB {
		// Same block as the previous access: the memoized way is guaranteed
		// valid and tagged tb (see the field comment), so only the LRU stamp,
		// the dirty bit and the access count need touching — exactly what the
		// full hit path below would do.
		w := c.hotWay
		c.lru[w] = c.tick
		if write && c.writeBack {
			c.tags[w] |= dirtyFlag
		}
		return Result{Hit: true}
	}
	set := int(ib & c.setMask)
	want := tb | validFlag
	switch c.assoc {
	case 1: // direct-mapped: one candidate way, no victim search
		if c.tags[set]&^uint64(dirtyFlag) == want {
			return c.hitWay(set, ib, tb, write)
		}
		return c.fillWay(set, ib, tb, write)
	case 2: // two-way: unrolled probe
		a := set * 2
		t0, t1 := c.tags[a], c.tags[a+1]
		if t0&^uint64(dirtyFlag) == want {
			return c.hitWay(a, ib, tb, write)
		}
		if t1&^uint64(dirtyFlag) == want {
			return c.hitWay(a+1, ib, tb, write)
		}
		v := a
		if t0&validFlag != 0 && (t1&validFlag == 0 || c.lru[a+1] < c.lru[a]) {
			v = a + 1
		}
		return c.fillWay(v, ib, tb, write)
	}
	base := set * c.assoc
	for w := base; w < base+c.assoc; w++ {
		if c.tags[w]&^uint64(dirtyFlag) == want {
			return c.hitWay(w, ib, tb, write)
		}
	}
	victim := base
	for w := base; w < base+c.assoc; w++ {
		if c.tags[w]&validFlag == 0 {
			victim = w
			break
		}
		if c.lru[w] < c.lru[victim] {
			victim = w
		}
	}
	return c.fillWay(victim, ib, tb, write)
}

// hitWay records a hit in way w and memoizes the block. The caller has
// already counted the access and advanced the tick.
func (c *Cache) hitWay(w int, ib, tb uint64, write bool) Result {
	c.lru[w] = c.tick
	if write && c.writeBack {
		c.tags[w] |= dirtyFlag
	}
	c.hotIB, c.hotTB, c.hotWay, c.hotOK = ib, tb, int32(w), true
	return Result{Hit: true}
}

// fillWay evicts way w (counting a write-back if it was dirty) and fills it
// with block tb, memoizing the block. The caller has already counted the
// access and advanced the tick.
func (c *Cache) fillWay(w int, ib, tb uint64, write bool) Result {
	c.stats.Misses++
	wb := c.tags[w]&(validFlag|dirtyFlag) == validFlag|dirtyFlag
	if wb {
		c.stats.WriteBacks++
	}
	e := tb | validFlag
	if write && c.writeBack {
		e |= dirtyFlag
	}
	c.tags[w] = e
	c.lru[w] = c.tick
	c.hotIB, c.hotTB, c.hotWay, c.hotOK = ib, tb, int32(w), true
	return Result{Hit: false, WriteBack: wb}
}

// Flush invalidates every line, returning how many dirty lines were dropped.
func (c *Cache) Flush() int {
	dirty := 0
	for i := range c.tags {
		if c.tags[i]&(validFlag|dirtyFlag) == validFlag|dirtyFlag {
			dirty++
		}
		c.tags[i] = 0
		c.lru[i] = 0
	}
	c.hotOK = false
	return dirty
}

// State is a deep snapshot of a cache's contents and statistics, taken with
// Snapshot and reinstated with Restore. It shares no memory with the cache
// it came from, so one snapshot can seed many caches concurrently.
//
// The encoding is sparse: only lines whose tag or LRU word is non-zero are
// stored, as (index, tag, lru) triples in parallel slices. A warmed-up L2 is
// a few percent occupied, so this is a fraction of a dense copy, and it is
// exact — Restore zeroes every line before scattering the stored ones back,
// and every line left out was zero in the source.
type State struct {
	lines int      // line count of the source cache, for the geometry check
	idx   []uint32 // line index (set*assoc+way) of each stored line
	tags  []uint64
	lru   []uint64
	tick  uint64
	stats Stats
}

// Snapshot captures the cache's full state: every line (tag, valid, dirty,
// LRU), the LRU tick and the statistics. The same-block memo is not state —
// it is re-derived by the next access — so a restored cache behaves
// identically to the snapshotted one from the first access on.
func (c *Cache) Snapshot() *State {
	n := 0
	for i := range c.tags {
		if c.tags[i]|c.lru[i] != 0 {
			n++
		}
	}
	s := &State{
		lines: len(c.tags),
		idx:   make([]uint32, 0, n),
		tags:  make([]uint64, 0, n),
		lru:   make([]uint64, 0, n),
		tick:  c.tick,
		stats: c.stats,
	}
	for i := range c.tags {
		if c.tags[i]|c.lru[i] != 0 {
			s.idx = append(s.idx, uint32(i))
			s.tags = append(s.tags, c.tags[i])
			s.lru = append(s.lru, c.lru[i])
		}
	}
	return s
}

// Restore overwrites the cache's state from a snapshot. The snapshot must
// come from an identically configured cache; the state is copied, never
// aliased, so the snapshot stays reusable.
func (c *Cache) Restore(s *State) error {
	if s.lines != len(c.tags) {
		return fmt.Errorf("cache: snapshot has %d lines, cache has %d (geometry mismatch)",
			s.lines, len(c.tags))
	}
	clear(c.tags)
	clear(c.lru)
	for k, i := range s.idx {
		c.tags[i] = s.tags[k]
		c.lru[i] = s.lru[k]
	}
	c.tick = s.tick
	c.stats = s.stats
	c.hotOK = false
	return nil
}

// Bytes is the snapshot's approximate resident size.
func (s *State) Bytes() int {
	return int(unsafe.Sizeof(*s)) + 4*cap(s.idx) + 8*cap(s.tags) + 8*cap(s.lru)
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without touching cache contents (used to
// discard warm-up statistics).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// MissRate returns misses/accesses, 0 when idle.
func (c *Cache) MissRate() float64 {
	if c.stats.Accesses == 0 {
		return 0
	}
	return float64(c.stats.Misses) / float64(c.stats.Accesses)
}
