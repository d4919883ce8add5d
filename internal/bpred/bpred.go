// Package bpred implements the branch prediction logic of the paper's
// Table 1: a bimodal predictor with 4 states (2-bit saturating counters) for
// conditional-branch direction, and a 1024-entry 2-way branch target buffer
// (BTB) for targets.
//
// The IA scheme of the paper (§3.3.4, Figure 2) taps the BTB output: as soon
// as a predicted target is available, its virtual page number is compared
// against the CFR. The Prediction struct therefore exposes both the
// direction and the BTB-supplied target so internal/core can run the
// Figure 3 decision procedure.
package bpred

import (
	"fmt"
	"unsafe"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/isa"
)

// Config sizes the predictor.
type Config struct {
	// BimodalEntries is the number of 2-bit counters (power of two).
	BimodalEntries int
	// BTBEntries and BTBAssoc size the branch target buffer.
	BTBEntries int
	BTBAssoc   int
	// RASEntries sizes the return-address stack (8 in SimpleScalar's
	// default front end, which the paper's Table 1 machine is based on).
	// Zero disables it, leaving returns to the BTB.
	RASEntries int
	// MispredictPenalty is the redirect penalty in cycles (7 in Table 1).
	MispredictPenalty int
}

// Default is the paper's configuration.
var Default = Config{
	BimodalEntries:    2048,
	BTBEntries:        1024,
	BTBAssoc:          2,
	RASEntries:        8,
	MispredictPenalty: 7,
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BimodalEntries <= 0 || c.BimodalEntries&(c.BimodalEntries-1) != 0 {
		return fmt.Errorf("bpred: bimodal entries %d not a power of two", c.BimodalEntries)
	}
	if c.BTBEntries <= 0 || c.BTBAssoc <= 0 || c.BTBEntries%c.BTBAssoc != 0 {
		return fmt.Errorf("bpred: bad BTB geometry %d/%d", c.BTBEntries, c.BTBAssoc)
	}
	sets := c.BTBEntries / c.BTBAssoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("bpred: BTB set count %d not a power of two", sets)
	}
	if c.RASEntries < 0 {
		return fmt.Errorf("bpred: negative RAS size")
	}
	if c.MispredictPenalty < 0 {
		return fmt.Errorf("bpred: negative mispredict penalty")
	}
	return nil
}

type btbEntry struct {
	tag    uint64
	target addr.VAddr
	valid  bool
	lru    uint64
}

// Stats tracks prediction quality. Table 5 of the paper is Accuracy().
type Stats struct {
	Lookups     uint64 // dynamic CTIs predicted
	Correct     uint64 // direction and (if taken) target both right
	DirWrong    uint64 // conditional direction mispredictions
	TargetWrong uint64 // taken with wrong/missing target
	BTBHits     uint64
}

// Accuracy returns the fraction of CTIs predicted fully correctly.
func (s Stats) Accuracy() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Correct) / float64(s.Lookups)
}

// Predictor is the combined bimodal + BTB unit.
type Predictor struct {
	cfg     Config
	bimodal []uint8 // 2-bit counters, initialized weakly taken
	btb     []btbEntry
	btbSets int
	ras     []addr.VAddr // circular return-address stack
	rasTop  int          // index of the next push slot
	rasLive int          // valid entries (<= len(ras))
	tick    uint64
	stats   Stats
}

// New builds a predictor, panicking on invalid configuration.
func New(cfg Config) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Predictor{
		cfg:     cfg,
		bimodal: make([]uint8, cfg.BimodalEntries),
		btb:     make([]btbEntry, cfg.BTBEntries),
		btbSets: cfg.BTBEntries / cfg.BTBAssoc,
	}
	for i := range p.bimodal {
		p.bimodal[i] = 2 // weakly taken
	}
	if cfg.RASEntries > 0 {
		p.ras = make([]addr.VAddr, cfg.RASEntries)
	}
	return p
}

// rasPush records a return address at call-predict time (speculative, like
// real hardware: wrong-path calls can corrupt the stack).
func (p *Predictor) rasPush(ret addr.VAddr) {
	if len(p.ras) == 0 {
		return
	}
	p.ras[p.rasTop] = ret
	p.rasTop = (p.rasTop + 1) % len(p.ras)
	if p.rasLive < len(p.ras) {
		p.rasLive++
	}
}

// rasPop yields the predicted return target, if any.
func (p *Predictor) rasPop() (addr.VAddr, bool) {
	if len(p.ras) == 0 || p.rasLive == 0 {
		return 0, false
	}
	p.rasTop = (p.rasTop - 1 + len(p.ras)) % len(p.ras)
	p.rasLive--
	return p.ras[p.rasTop], true
}

// Config returns the predictor configuration.
func (p *Predictor) Config() Config { return p.cfg }

func (p *Predictor) counterIdx(pc addr.VAddr) int {
	return int(uint64(pc)>>2) & (p.cfg.BimodalEntries - 1)
}

func (p *Predictor) btbSet(pc addr.VAddr) []btbEntry {
	s := int(uint64(pc)>>2) & (p.btbSets - 1)
	return p.btb[s*p.cfg.BTBAssoc : (s+1)*p.cfg.BTBAssoc]
}

func (p *Predictor) btbLookup(pc addr.VAddr) (addr.VAddr, bool) {
	set := p.btbSet(pc)
	tag := uint64(pc)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			p.tick++
			set[i].lru = p.tick
			return set[i].target, true
		}
	}
	return 0, false
}

func (p *Predictor) btbInsert(pc, target addr.VAddr) {
	set := p.btbSet(pc)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == uint64(pc) {
			victim = i // retrain in place
			break
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	p.tick++
	set[victim] = btbEntry{tag: uint64(pc), target: target, valid: true, lru: p.tick}
}

// Prediction is the front end's view of one CTI before resolution.
type Prediction struct {
	// Taken is the predicted direction. Unconditional CTIs predict taken
	// only when the BTB supplies a target (otherwise the fetch unit cannot
	// redirect and falls through until resolution).
	Taken bool
	// Target is the predicted destination (valid when Taken).
	Target addr.VAddr
	// BTBHit reports whether the BTB held an entry for this PC — the signal
	// the IA scheme's page comparator consumes (Figure 2).
	BTBHit bool
}

// Predict returns the front-end prediction for the CTI at pc. Calls push
// their return address onto the RAS; returns pop it.
func (p *Predictor) Predict(pc addr.VAddr, kind isa.Kind) Prediction {
	if kind == isa.Ret {
		if target, ok := p.rasPop(); ok {
			// The RAS supplies a concrete predicted target, so the IA page
			// comparator has an address to check, exactly as with a BTB hit.
			return Prediction{Taken: true, Target: target, BTBHit: true}
		}
	}
	target, hit := p.btbLookup(pc)
	if hit {
		p.stats.BTBHits++
	}
	if kind == isa.Call {
		p.rasPush(pc + 4)
	}
	var taken bool
	if kind.IsConditional() {
		taken = p.bimodal[p.counterIdx(pc)] >= 2
	} else {
		taken = true // unconditional
	}
	if taken && !hit {
		// No target available: fetch cannot redirect.
		return Prediction{Taken: false, BTBHit: false}
	}
	return Prediction{Taken: taken, Target: target, BTBHit: hit}
}

// Resolve updates predictor state with the actual outcome and returns whether
// the earlier prediction was correct. It also maintains Table 5 statistics.
func (p *Predictor) Resolve(pc addr.VAddr, kind isa.Kind, pred Prediction, taken bool, target addr.VAddr) bool {
	p.stats.Lookups++
	if kind.IsConditional() {
		idx := p.counterIdx(pc)
		if taken {
			if p.bimodal[idx] < 3 {
				p.bimodal[idx]++
			}
		} else if p.bimodal[idx] > 0 {
			p.bimodal[idx]--
		}
	}
	if taken && kind != isa.Ret {
		// Returns are served by the RAS; keeping them out of the BTB avoids
		// polluting it with constantly-retrained entries.
		p.btbInsert(pc, target)
	}
	correct := pred.Taken == taken && (!taken || pred.Target == target)
	if correct {
		p.stats.Correct++
	} else if pred.Taken != taken {
		p.stats.DirWrong++
	} else {
		p.stats.TargetWrong++
	}
	return correct
}

// State is a deep snapshot of a predictor's contents and statistics, taken
// with Snapshot and reinstated with Restore. It shares no memory with the
// predictor it came from, so one snapshot can seed many predictors
// concurrently. The BTB is stored sparsely — only its non-zero entries, with
// their indices — and Restore zeroes the BTB before scattering them back,
// which is exact because every entry left out was zero in the source.
type State struct {
	bimodal []uint8
	btbLen  int      // BTB size of the source predictor, for the geometry check
	btbIdx  []uint32 // index of each stored BTB entry
	btb     []btbEntry
	ras     []addr.VAddr
	rasTop  int
	rasLive int
	tick    uint64
	stats   Stats
}

// Snapshot captures the predictor's full state: the bimodal counters, the
// BTB (entries and LRU), the return-address stack and the statistics.
func (p *Predictor) Snapshot() *State {
	n := 0
	for i := range p.btb {
		if p.btb[i] != (btbEntry{}) {
			n++
		}
	}
	s := &State{
		bimodal: append([]uint8(nil), p.bimodal...),
		btbLen:  len(p.btb),
		btbIdx:  make([]uint32, 0, n),
		btb:     make([]btbEntry, 0, n),
		ras:     append([]addr.VAddr(nil), p.ras...),
		rasTop:  p.rasTop,
		rasLive: p.rasLive,
		tick:    p.tick,
		stats:   p.stats,
	}
	for i, e := range p.btb {
		if e != (btbEntry{}) {
			s.btbIdx = append(s.btbIdx, uint32(i))
			s.btb = append(s.btb, e)
		}
	}
	return s
}

// Restore overwrites the predictor's state from a snapshot. The snapshot
// must come from an identically configured predictor; the state is copied,
// never aliased.
func (p *Predictor) Restore(s *State) error {
	if len(s.bimodal) != len(p.bimodal) || s.btbLen != len(p.btb) || len(s.ras) != len(p.ras) {
		return fmt.Errorf("bpred: snapshot geometry mismatch (bimodal %d/%d, btb %d/%d, ras %d/%d)",
			len(s.bimodal), len(p.bimodal), s.btbLen, len(p.btb), len(s.ras), len(p.ras))
	}
	copy(p.bimodal, s.bimodal)
	clear(p.btb)
	for k, i := range s.btbIdx {
		p.btb[i] = s.btb[k]
	}
	copy(p.ras, s.ras)
	p.rasTop = s.rasTop
	p.rasLive = s.rasLive
	p.tick = s.tick
	p.stats = s.stats
	return nil
}

// Bytes is the snapshot's approximate resident size.
func (s *State) Bytes() int {
	return int(unsafe.Sizeof(*s)) + cap(s.bimodal) + 4*cap(s.btbIdx) +
		int(unsafe.Sizeof(btbEntry{}))*cap(s.btb) + 8*cap(s.ras)
}

// Stats returns a copy of the accumulated statistics.
func (p *Predictor) Stats() Stats { return p.stats }

// ResetStats zeroes the statistics without touching predictor state.
func (p *Predictor) ResetStats() { p.stats = Stats{} }
