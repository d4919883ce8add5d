// Package workload generates the synthetic benchmark code images.
//
// The paper evaluates six SPECcpu2000 programs chosen for their relatively
// poor instruction locality (Table 2). We cannot ship SPEC binaries, so each
// benchmark is replaced by a generated code image whose *stream statistics*
// are calibrated toward the paper's published characteristics for that
// program: dynamic branch fraction, page-crossing rate and its
// BOUNDARY/BRANCH mix (Table 2), the fraction of statically analyzable
// branches and how many stay in-page (Table 4), branch predictor accuracy
// (Table 5) and the iL1 miss rate (Table 2). Those statistics — not program
// semantics — are what every mechanism in the paper responds to.
//
// Structure. Real SPEC dynamics are call-centric: execution sweeps across a
// hot code footprint of a few pages rather than spinning in one tight loop,
// so page crossings occur every few dozen instructions. The generator
// mirrors that shape:
//
//   - a driver walks through phases; each phase loops over a window of
//     "hot" functions (the phase footprint and rotation control the iL1
//     miss rate);
//   - hot functions run a main loop of LoopIters iterations whose body
//     makes CallsPerIter calls to worker functions — near calls reach the
//     workers laid out immediately after the hot function (usually the
//     same page), far calls reach another group's workers (usually a page
//     crossing);
//   - worker functions are mostly straight-line code with data-dependent
//     forward branches, small high-trip-count local loops (they keep the
//     bimodal predictor honest), occasional indirect jumps, and a return;
//   - a configurable share of worker bodies is emitted as long straight
//     runs, producing the BOUNDARY crossings and branch-free miss bursts
//     that differentiate SoCA from OPT under VI-VT.
//
// The call graph is a DAG (calls always target higher addresses), so call
// depth stays bounded and every return matches a call.
package workload

import (
	"fmt"
	"math"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/isa"
	"itlbcfr/internal/program"
	"itlbcfr/internal/xrand"
)

// CodeBase is where generated images are linked.
const CodeBase = addr.VAddr(0x0040_0000)

// Profile parameterizes one synthetic benchmark.
type Profile struct {
	Name string
	Seed uint64

	// Code shape. The image is laid out as
	//   driver | group 0 | group 1 | ... | group Groups-1
	// where each group is one hot function followed by WorkersPerGroup
	// worker functions.
	Groups          int
	WorkersPerGroup int
	HotBodyLen      int // instructions in a hot function's loop body (excluding calls)
	WorkerSizeMin   int // worker length in instructions
	WorkerSizeMax   int

	// Hot-loop dynamics.
	LoopIters    int     // mean iterations of a hot function's main loop
	CallsPerIter int     // worker calls per loop iteration
	FarCallFrac  float64 // fraction of those calls that go to another group

	// Worker-body control flow.
	CTIEvery      int     // mean instructions per conditional branch
	SmallLoopFrac float64 // conditional branches that are local back-loops
	SmallLoopBias float64 // their taken probability (high = predictable)
	FwdBiasLo     float64 // forward-branch bias range (uniform)
	FwdBiasHi     float64
	FwdSpanMax    int     // max forward branch/jump span in instructions (default 16)
	ColdFrac      float64 // conditional slots emitted as cold branches: biased
	//                       not-taken, far cross-page targets (hot/cold splitting)
	ColdBias      float64 // taken probability of cold branches (error paths)
	JumpFrac      float64 // unconditional forward jumps, as a fraction of CTI slots
	TailJumpFrac  float64 // fraction of jump slots emitted as far tail-jumps
	IndFrac       float64 // indirect jumps, as a fraction of CTI slots
	SwitchTargets int     // indirect-jump fanout
	StraightFrac  float64 // probability of opening a straight-line run
	StraightLen   int     // mean straight-run length
	WorkerCall    float64 // per-CTI-slot probability of a worker chain call
	WorkerCallMax int     // chain-call sites allowed per worker (default 1)
	IndFarFrac    float64 // indirect-jump targets drawn from far workers
	//                       (virtual dispatch) instead of local labels

	// Execution locality (drives the iL1 miss rate).
	PhaseGroups int // hot groups per driver phase
	Phases      int // number of phases (windows slide across groups)
	PhaseRepeat int // expected iterations of a phase's inner loop

	// Instruction mix among plain (non-CTI) instructions.
	FracMem float64 // loads+stores (defaults to 0.30 when zero)
	FracFP  float64 // fp share of the non-memory remainder

	// Data side.
	DataWorkingSet uint64
	DataStride     uint64
	DataJumpProb   float64
}

// Validate sanity-checks a profile.
func (p Profile) Validate() error {
	if p.Groups < 2 || p.WorkersPerGroup < 1 {
		return fmt.Errorf("workload %q: bad group shape", p.Name)
	}
	if p.WorkerSizeMin < 16 || p.WorkerSizeMax < p.WorkerSizeMin || p.HotBodyLen < 8 {
		return fmt.Errorf("workload %q: bad function sizes", p.Name)
	}
	if p.LoopIters < 1 || p.CallsPerIter < 1 {
		return fmt.Errorf("workload %q: bad loop shape", p.Name)
	}
	if p.CTIEvery < 2 {
		return fmt.Errorf("workload %q: CTIEvery %d < 2", p.Name, p.CTIEvery)
	}
	if p.PhaseGroups < 1 || p.Phases < 1 || p.PhaseRepeat < 1 {
		return fmt.Errorf("workload %q: bad phase shape", p.Name)
	}
	if p.PhaseGroups > p.Groups {
		return fmt.Errorf("workload %q: phase window exceeds group count", p.Name)
	}
	if s := p.JumpFrac + p.IndFrac; s > 0.9 {
		return fmt.Errorf("workload %q: jump+indirect fraction %v leaves no conditionals", p.Name, s)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"FarCallFrac", p.FarCallFrac}, {"SmallLoopFrac", p.SmallLoopFrac},
		{"SmallLoopBias", p.SmallLoopBias}, {"FwdBiasLo", p.FwdBiasLo},
		{"FwdBiasHi", p.FwdBiasHi}, {"ColdFrac", p.ColdFrac}, {"ColdBias", p.ColdBias},
		{"JumpFrac", p.JumpFrac}, {"TailJumpFrac", p.TailJumpFrac}, {"IndFrac", p.IndFrac},
		{"StraightFrac", p.StraightFrac}, {"WorkerCall", p.WorkerCall},
		{"IndFarFrac", p.IndFarFrac}, {"FracMem", p.FracMem}, {"FracFP", p.FracFP},
		{"DataJumpProb", p.DataJumpProb},
	} {
		// A NaN would also defeat every profile comparison: it never equals
		// itself, so no two runs of such a profile could share an image.
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("workload %q: %s %v is not finite", p.Name, f.name, f.v)
		}
	}
	return nil
}

// DataStreams returns the executor data-stream configuration for the profile.
func (p Profile) DataStreams() []program.DataStreamConfig {
	ws := p.DataWorkingSet
	if ws == 0 {
		ws = 1 << 20
	}
	stride := p.DataStride
	if stride == 0 {
		stride = 16
	}
	return []program.DataStreamConfig{
		{Base: 0x4000_0000, WorkingSetBytes: ws, StrideBytes: stride, JumpProb: p.DataJumpProb},
		{Base: 0x5000_0000, WorkingSetBytes: ws / 4, StrideBytes: 8, JumpProb: p.DataJumpProb / 2},
	}
}

// Generate builds the code image for a profile.
func Generate(p Profile) (*program.Image, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &generator{p: p, rng: xrand.New(p.Seed), targets: make(map[addr.VAddr][]addr.VAddr)}
	img := g.build()
	if err := img.Validate(); err != nil {
		return nil, fmt.Errorf("workload %q: generated invalid image: %w", p.Name, err)
	}
	return img, nil
}

// MustGenerate is Generate for known-good profiles (panics on error).
func MustGenerate(p Profile) *program.Image {
	img, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return img
}

type generator struct {
	p   Profile
	rng *xrand.Source

	code    []isa.Inst
	targets map[addr.VAddr][]addr.VAddr // IndJump target sets by site address

	hotStart    []int   // entry index of each group's hot function
	workerStart [][]int // entry index of each group's workers
}

func (g *generator) addrOf(idx int) addr.VAddr { return addr.InstAddr(CodeBase, idx) }

func (g *generator) build() *program.Image {
	p := g.p

	// Pass 1: sizes and layout.
	driverLen := p.Phases*(p.PhaseGroups+1) + 1
	hotLen := g.hotFuncLen()

	workerLens := make([][]int, p.Groups)
	g.hotStart = make([]int, p.Groups)
	g.workerStart = make([][]int, p.Groups)
	total := driverLen
	for gi := 0; gi < p.Groups; gi++ {
		g.hotStart[gi] = total
		total += hotLen
		workerLens[gi] = make([]int, p.WorkersPerGroup)
		g.workerStart[gi] = make([]int, p.WorkersPerGroup)
		for wi := 0; wi < p.WorkersPerGroup; wi++ {
			n := g.rng.Range(p.WorkerSizeMin, p.WorkerSizeMax)
			g.workerStart[gi][wi] = total
			workerLens[gi][wi] = n
			total += n
		}
	}
	g.code = make([]isa.Inst, total)

	// Pass 2: bodies.
	g.emitDriver()
	for gi := 0; gi < p.Groups; gi++ {
		g.emitHot(gi)
		for wi := 0; wi < p.WorkersPerGroup; wi++ {
			g.emitWorker(gi, wi, workerLens[gi][wi])
		}
	}

	img := program.NewImage(p.Name, CodeBase, addr.DefaultGeometry, g.code, g.targets)
	img.Entry = CodeBase
	return img
}

// hotFuncLen computes the fixed layout length of a hot function:
// prologue(2) + body with embedded calls + loop branch + Ret.
func (g *generator) hotFuncLen() int {
	return 2 + g.p.HotBodyLen + g.p.CallsPerIter + 1 + 1
}

func (g *generator) emitDriver() {
	p := g.p
	idx := 0
	for ph := 0; ph < p.Phases; ph++ {
		phaseStart := idx
		stride := p.Groups / p.Phases
		if stride < 1 {
			stride = 1
		}
		for k := 0; k < p.PhaseGroups; k++ {
			gi := (ph*stride + k) % p.Groups
			g.code[idx] = isa.Inst{Kind: isa.Call, Target: g.addrOf(g.hotStart[gi])}
			idx++
		}
		bias := float64(p.PhaseRepeat) / float64(p.PhaseRepeat+1)
		g.code[idx] = isa.Inst{
			Kind:      isa.CondBranch,
			Target:    g.addrOf(phaseStart),
			TakenBias: float32(bias),
		}
		idx++
	}
	g.code[idx] = isa.Inst{Kind: isa.Jump, Target: g.addrOf(0)}
}

// emitHot fills group gi's hot function: a main loop whose body interleaves
// plain work with CallsPerIter worker calls.
func (g *generator) emitHot(gi int) {
	p := g.p
	idx := g.hotStart[gi]
	end := idx + g.hotFuncLen()

	// Prologue.
	g.code[idx] = g.plainInst()
	idx++
	loopTop := idx
	g.code[idx] = g.plainInst()
	idx++

	// Body: spread the calls evenly through the plain work.
	slots := p.HotBodyLen + p.CallsPerIter
	callEvery := slots / p.CallsPerIter
	for s := 0; s < slots; s++ {
		if s%callEvery == callEvery-1 && g.countCalls(g.hotStart[gi], idx) < p.CallsPerIter {
			g.code[idx] = g.hotCall(gi)
		} else {
			g.code[idx] = g.plainInst()
		}
		idx++
	}
	// Loop branch.
	bias := float64(p.LoopIters) / float64(p.LoopIters+1)
	g.code[idx] = isa.Inst{Kind: isa.CondBranch, Target: g.addrOf(loopTop), TakenBias: float32(bias)}
	idx++
	g.code[idx] = isa.Inst{Kind: isa.Ret}
	if idx != end-1 {
		panic("workload: hot function layout mismatch")
	}
}

func (g *generator) countCalls(from, to int) int {
	n := 0
	for i := from; i < to; i++ {
		if g.code[i].Kind == isa.Call {
			n++
		}
	}
	return n
}

// hotCall picks a worker callee for group gi: near (own group) or far
// (another group, usually a page crossing).
func (g *generator) hotCall(gi int) isa.Inst {
	p := g.p
	tgtGroup := gi
	if p.Groups > 1 && g.rng.Bool(p.FarCallFrac) {
		for {
			tgtGroup = g.rng.Intn(p.Groups)
			if tgtGroup != gi {
				break
			}
		}
	}
	wi := g.rng.Intn(p.WorkersPerGroup)
	return isa.Inst{Kind: isa.Call, Target: g.addrOf(g.workerStart[tgtGroup][wi])}
}

// emitWorker fills worker wi of group gi.
func (g *generator) emitWorker(gi, wi, size int) {
	p := g.p
	start := g.workerStart[gi][wi]
	last := start + size - 1
	g.code[last] = isa.Inst{Kind: isa.Ret}

	straight := 0
	chainCalls := 0
	chainMax := p.WorkerCallMax
	if chainMax < 1 {
		chainMax = 1
	}
	for i := start; i < last; i++ {
		if straight > 0 {
			straight--
			g.code[i] = g.plainInst()
			continue
		}
		if p.StraightFrac > 0 && g.rng.Bool(p.StraightFrac) {
			straight = g.rng.Range(p.StraightLen/2, p.StraightLen*3/2)
			g.code[i] = g.plainInst()
			continue
		}
		if !g.rng.Bool(1 / float64(p.CTIEvery)) {
			g.code[i] = g.plainInst()
			continue
		}
		// CTI slot.
		r := g.rng.Float64()
		switch {
		case r < p.IndFrac:
			g.code[i] = g.indJump(gi, wi, i, last)
		case r < p.IndFrac+p.JumpFrac:
			if g.rng.Bool(p.TailJumpFrac) {
				g.code[i] = g.tailJump(gi, wi)
			} else {
				g.code[i] = g.fwdJump(i, last)
			}
		case chainCalls < chainMax && g.rng.Bool(p.WorkerCall):
			chainCalls++
			g.code[i] = g.workerChainCall(gi, wi)
		case g.rng.Bool(p.ColdFrac):
			g.code[i] = g.coldBranch(gi, wi)
		default:
			g.code[i] = g.condBranch(i, start, last)
		}
	}
}

// tailJump emits an unconditional jump to a later worker's entry (a tail
// call, as compilers emit for terminal calls and long if-else cascades).
// Targets respect DAG order, so tail chains always terminate at a return.
// These are the analyzable page-crossing branches of the paper's Table 4:
// direct, compile-time-known targets that usually live on another page.
func (g *generator) tailJump(gi, wi int) isa.Inst {
	p := g.p
	// Prefer a worker in a strictly later group (almost always a crossing);
	// fall back to the next worker in this group.
	if gi+1 < p.Groups {
		tg := g.rng.Range(gi+1, p.Groups-1)
		return isa.Inst{Kind: isa.Jump, Target: g.addrOf(g.workerStart[tg][g.rng.Intn(p.WorkersPerGroup)])}
	}
	if wi+1 < p.WorkersPerGroup {
		return isa.Inst{Kind: isa.Jump, Target: g.addrOf(g.workerStart[gi][wi+1])}
	}
	return g.plainInst()
}

// workerChainCall lets a worker call a later worker (DAG order): with
// probability FarCallFrac a worker of a later group (usually another page),
// otherwise the next worker of this group. The last workers have no
// successor and emit plain work instead.
func (g *generator) workerChainCall(gi, wi int) isa.Inst {
	p := g.p
	if gi+1 < p.Groups && g.rng.Bool(p.FarCallFrac) {
		tg := g.rng.Range(gi+1, p.Groups-1)
		return isa.Inst{Kind: isa.Call, Target: g.addrOf(g.workerStart[tg][g.rng.Intn(p.WorkersPerGroup)])}
	}
	if wi+1 < p.WorkersPerGroup {
		return isa.Inst{Kind: isa.Call, Target: g.addrOf(g.workerStart[gi][wi+1])}
	}
	if gi+1 < p.Groups {
		return isa.Inst{Kind: isa.Call, Target: g.addrOf(g.workerStart[gi+1][0])}
	}
	return g.plainInst()
}

func (g *generator) fwdSpan() int {
	if g.p.FwdSpanMax > 16 {
		return g.p.FwdSpanMax
	}
	return 16
}

// coldBranch emits a rarely-taken conditional whose target is a later
// worker's entry — the compiler's hot/cold split. Executed often, taken
// rarely; its statically cross-page target is what denies it the SoLA
// in-page bit.
func (g *generator) coldBranch(gi, wi int) isa.Inst {
	p := g.p
	bias := p.ColdBias
	if bias <= 0 {
		bias = 0.02
	}
	var target addr.VAddr
	if gi+1 < p.Groups {
		tg := g.rng.Range(gi+1, p.Groups-1)
		target = g.addrOf(g.workerStart[tg][g.rng.Intn(p.WorkersPerGroup)])
	} else if wi+1 < p.WorkersPerGroup {
		target = g.addrOf(g.workerStart[gi][wi+1])
	} else {
		return g.plainInst()
	}
	return isa.Inst{Kind: isa.CondBranch, Target: target, TakenBias: float32(bias)}
}

func (g *generator) condBranch(i, start, last int) isa.Inst {
	p := g.p
	if g.rng.Bool(p.SmallLoopFrac) && i-start >= 4 {
		// Small local loop over the last few instructions; high trip count
		// keeps the bimodal predictor accurate. Bodies never contain another
		// backward branch (they are too short), so no nesting blow-up.
		body := g.rng.Range(2, 5)
		lo := i - body
		if lo < start {
			lo = start
		}
		return isa.Inst{
			Kind:      isa.CondBranch,
			Target:    g.addrOf(lo),
			TakenBias: float32(p.SmallLoopBias),
		}
	}
	if i+2 >= last {
		return g.plainInst()
	}
	hi := i + g.rng.Range(2, g.fwdSpan())
	if hi > last {
		hi = last
	}
	bias := p.FwdBiasLo + g.rng.Float64()*(p.FwdBiasHi-p.FwdBiasLo)
	return isa.Inst{
		Kind:      isa.CondBranch,
		Target:    g.addrOf(g.rng.Range(i+1, hi)),
		TakenBias: float32(bias),
	}
}

func (g *generator) fwdJump(i, last int) isa.Inst {
	if i+2 >= last {
		return g.plainInst()
	}
	hi := i + g.rng.Range(2, g.fwdSpan()+8)
	if hi > last {
		hi = last
	}
	return isa.Inst{Kind: isa.Jump, Target: g.addrOf(g.rng.Range(i+1, hi))}
}

// indJump emits a switch-style indirect jump. With probability IndFarFrac
// each target is a later worker's entry (virtual dispatch through a vtable —
// a page crossing SoLA cannot analyze away); otherwise targets are local
// forward labels.
func (g *generator) indJump(gi, wi, i, last int) isa.Inst {
	p := g.p
	fan := p.SwitchTargets
	if fan < 2 {
		fan = 2
	}
	if i+fan+2 >= last {
		return g.plainInst()
	}
	set := make([]addr.VAddr, 0, fan)
	seen := map[addr.VAddr]bool{}
	for len(set) < fan {
		var t addr.VAddr
		if gi+1 < p.Groups && g.rng.Bool(p.IndFarFrac) {
			tg := g.rng.Range(gi+1, p.Groups-1)
			t = g.addrOf(g.workerStart[tg][g.rng.Intn(p.WorkersPerGroup)])
		} else {
			t = g.addrOf(g.rng.Range(i+1, last))
		}
		if seen[t] {
			continue
		}
		seen[t] = true
		set = append(set, t)
	}
	g.targets[g.addrOf(i)] = set
	return isa.Inst{Kind: isa.IndJump}
}

func (g *generator) plainInst() isa.Inst {
	p := g.p
	r := g.rng.Float64()
	switch {
	case r < p.fracMem()/2:
		return isa.Inst{Kind: isa.Load, DataStream: uint8(g.rng.Intn(2))}
	case r < p.fracMem():
		return isa.Inst{Kind: isa.Store, DataStream: uint8(g.rng.Intn(2))}
	case r < p.fracMem()+(1-p.fracMem())*p.fracFP():
		if g.rng.Bool(0.25) {
			return isa.Inst{Kind: isa.FPMul}
		}
		return isa.Inst{Kind: isa.FPALU}
	default:
		if g.rng.Bool(0.05) {
			return isa.Inst{Kind: isa.IntMul}
		}
		return isa.Inst{Kind: isa.IntALU}
	}
}

func (p Profile) fracMem() float64 {
	if p.FracMem == 0 {
		return 0.30
	}
	return p.FracMem
}

func (p Profile) fracFP() float64 { return p.FracFP }
