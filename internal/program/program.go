// Package program defines the synthetic code image and the architectural
// executor that walks its correct path.
//
// An Image is a flat array of instructions laid out contiguously in virtual
// memory from Base. Everything the paper's mechanisms observe — page
// boundaries, branch targets, the in-page bit — is a function of this layout.
// The Executor interprets the image: control flow follows encoded targets,
// conditional outcomes come from each site's deterministic biased random
// stream, calls and returns use a real call stack, and loads/stores draw
// addresses from per-stream synthetic data generators. The pipeline consumes
// Executor steps as its oracle ("what the program really does") while
// independently fetching — possibly down wrong paths — from the same Image.
package program

import (
	"fmt"
	"math/bits"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/isa"
	"itlbcfr/internal/xrand"
)

// Image is an executable synthetic code image.
type Image struct {
	Name string
	Base addr.VAddr
	Code []isa.Inst
	Geom addr.Geometry

	// Entry is the address where execution starts (the driver loop).
	Entry addr.VAddr

	// nop backs At() for addresses outside the image (reachable only by
	// wrong-path fetch).
	nop isa.Inst

	// plainRun[i] is the number of consecutive plain instructions (neither
	// a CTI nor a BOUNDARY stub) starting at Code[i], saturating at 255. It
	// is the image's one record of which slots are plain: the executor and
	// the trace replay set Step.Plain from it, and the pipeline's wrong-path
	// fetch reads it to batch a stretch of plain fetches.
	plainRun []uint8

	// targets holds each IndJump's possible destinations, keyed by the
	// jump's address. Only indirect jumps need a set, so the table keeps
	// the per-instruction Inst small.
	targets map[addr.VAddr][]addr.VAddr
}

// NewImage wraps code into an image. Entry defaults to Base. targets holds
// each IndJump's possible destinations keyed by the jump's address (nil when
// the image has no indirect jumps); the image keeps both code and targets,
// and Validate checks them. The plain-run lengths are computed here from the
// Kind and BoundaryStub fields they summarize, so code must not change those
// fields afterwards.
func NewImage(name string, base addr.VAddr, geom addr.Geometry, code []isa.Inst, targets map[addr.VAddr][]addr.VAddr) *Image {
	run := make([]uint8, len(code))
	next := 0 // plain run length starting at code[i+1]
	for i := len(code) - 1; i >= 0; i-- {
		if code[i].Kind.IsCTI() || code[i].BoundaryStub {
			next = 0
		} else if next < 255 {
			next++
		}
		run[i] = uint8(next)
	}
	return &Image{Name: name, Base: base, Code: code, Geom: geom, Entry: base, plainRun: run, targets: targets}
}

// Len returns the number of instructions.
func (im *Image) Len() int { return len(im.Code) }

// End returns the first address past the image.
func (im *Image) End() addr.VAddr { return addr.InstAddr(im.Base, len(im.Code)) }

// Contains reports whether pc addresses an instruction of the image.
func (im *Image) Contains(pc addr.VAddr) bool {
	return pc >= im.Base && pc < im.End() && (pc-im.Base)%addr.InstBytes == 0
}

// index returns pc's instruction index. Rotating the byte offset right by
// addr.InstShift moves a misaligned offset's low bits to the top, and pc
// below Base wraps around, so every address that is not an instruction of
// the image yields an index past len(Code): callers need one bounds check.
func (im *Image) index(pc addr.VAddr) uint64 {
	return bits.RotateLeft64(uint64(pc-im.Base), -addr.InstShift)
}

// At returns the instruction at pc. Addresses outside the image decode as a
// harmless IntALU so wrong-path fetch beyond the image never faults; the
// returned pointer must be treated as read-only.
func (im *Image) At(pc addr.VAddr) *isa.Inst {
	if i := im.index(pc); i < uint64(len(im.Code)) {
		return &im.Code[i]
	}
	return &im.nop
}

// PlainRun returns how many consecutive Plain instructions of the image
// start at pc (at most 255): 0 when pc's instruction is not plain or pc is
// not an instruction of the image. The run never extends past the image.
func (im *Image) PlainRun(pc addr.VAddr) int {
	if i := im.index(pc); i < uint64(len(im.plainRun)) {
		return int(im.plainRun[i])
	}
	return 0
}

// TargetSet returns the possible destinations of the IndJump at pc, in the
// order the producer recorded them (the executor favours the first); nil
// when none were recorded. The slice must be treated as read-only.
func (im *Image) TargetSet(pc addr.VAddr) []addr.VAddr { return im.targets[pc] }

// Pages returns the number of virtual pages the image spans.
func (im *Image) Pages() int {
	if len(im.Code) == 0 {
		return 0
	}
	first := im.Geom.VPN(im.Base)
	last := im.Geom.VPN(im.End() - 1)
	return int(last-first) + 1
}

// Validate checks that every encoded target lands inside the image on an
// instruction boundary, and that target sets are recorded exactly for the
// image's indirect jumps.
func (im *Image) Validate() error {
	indirect := 0
	for i := range im.Code {
		in := &im.Code[i]
		pc := addr.InstAddr(im.Base, i)
		if in.Kind.IsDirect() {
			if !im.Contains(in.Target) {
				return fmt.Errorf("program %s: %v at %#x targets %#x outside image",
					im.Name, in.Kind, uint64(pc), uint64(in.Target))
			}
		}
		if in.Kind == isa.IndJump {
			indirect++
			ts := im.targets[pc]
			if len(ts) == 0 {
				return fmt.Errorf("program %s: ijmp at %#x has empty target set", im.Name, uint64(pc))
			}
			for _, tgt := range ts {
				if !im.Contains(tgt) {
					return fmt.Errorf("program %s: ijmp at %#x targets %#x outside image",
						im.Name, uint64(pc), uint64(tgt))
				}
			}
		}
	}
	if len(im.targets) != indirect {
		return fmt.Errorf("program %s: %d target sets recorded for %d indirect jumps",
			im.Name, len(im.targets), indirect)
	}
	if !im.Contains(im.Entry) {
		return fmt.Errorf("program %s: entry %#x outside image", im.Name, uint64(im.Entry))
	}
	return nil
}

// Step is one architecturally executed instruction.
type Step struct {
	PC    addr.VAddr
	Inst  *isa.Inst
	Taken bool // CTIs: whether control transferred
	// Kind copies Inst.Kind, and Plain is !Kind.IsCTI() &&
	// !Inst.BoundaryStub, read from the image's plain-run table
	// (Image.PlainRun(PC) > 0). The pipeline's stretches read both per slot,
	// and the copies keep that read inside the sequentially written step
	// buffer instead of chasing Inst into a code image that may be far
	// larger than the L1 cache.
	Kind  isa.Kind
	Plain bool
	Next  addr.VAddr // address of the next instruction on the correct path
	Data  addr.VAddr // Load/Store: effective data address
}

// Source produces the architectural correct-path instruction stream the
// pipeline consumes as its oracle. Executor is the synthetic-workload
// implementation; internal/trace replays stored fetch traces through the
// same contract. Implementations must uphold what the pipeline and the CFR
// engine assume of the correct path: Step never ends (sources loop), PC of
// each step equals Next of the previous one, and every transition where
// Next is not PC+InstBytes is flagged by a CTI instruction with Taken set —
// a silent non-sequential transition would change pages without arming a
// translation and trip the engine's stale-use detector.
type Source interface {
	Step() Step
}

// Batcher is an optional Source extension the pipeline uses to amortize
// per-instruction interface dispatch: StepN fills dst completely (sources
// never end), equivalent to len(dst) consecutive Step calls. The pipeline
// buffers the produced steps, so a Batcher may be asked for steps well ahead
// of what the machine has consumed — which is always safe, because a Source
// is by contract independent of machine state.
type Batcher interface {
	Source
	StepN(dst []Step)
}

// SourceState is an opaque deep snapshot of a Source's progress, produced by
// a Snapshotter. It must not alias mutable source memory: restoring the same
// state onto several fresh sources concurrently must be safe.
type SourceState interface{}

// Snapshotter is an optional Source extension for warm-state forking: a
// deterministic source can capture its position and reinstate it on a fresh
// source built over the same underlying workload, which then reproduces the
// exact step sequence the original would have produced.
type Snapshotter interface {
	Source
	// SnapshotState captures the source's current position.
	SnapshotState() SourceState
	// RestoreState rewinds this source to a previously captured position.
	// It fails if the state came from a differently configured source.
	RestoreState(state SourceState) error
}

// DataStreamConfig shapes one synthetic data reference stream.
type DataStreamConfig struct {
	Base addr.VAddr
	// WorkingSetBytes bounds the stream's footprint.
	WorkingSetBytes uint64
	// StrideBytes advances the stream each access.
	StrideBytes uint64
	// JumpProb is the probability of teleporting to a random offset within
	// the working set (breaks spatial locality).
	JumpProb float64
}

// maxCallDepth bounds the call stack against pathological images; the
// generator emits matched call/return pairs so real programs stay far below.
const maxCallDepth = 4096

// Executor interprets an Image along its correct path.
type Executor struct {
	img     *Image
	end     addr.VAddr // cached img.End() for the per-step bounds check
	pc      addr.VAddr
	stack   []addr.VAddr
	rng     *xrand.Source
	streams []dataStream

	steps uint64
}

type dataStream struct {
	cfg DataStreamConfig
	pos uint64

	// Hot-path copies of the configuration, with defaults resolved once.
	ws       uint64
	stride   uint64
	jumpProb float64
	base     addr.VAddr
}

// NewExecutor builds an executor starting at the image entry.
// seed drives branch outcomes, indirect target selection and data streams.
func NewExecutor(img *Image, seed uint64, streams []DataStreamConfig) *Executor {
	ex := &Executor{
		img: img,
		end: img.End(),
		pc:  img.Entry,
		rng: xrand.New(seed ^ 0xA5A5_5A5A_1234_5678),
	}
	if len(streams) == 0 {
		streams = []DataStreamConfig{{
			Base:            0x4000_0000,
			WorkingSetBytes: 1 << 20,
			StrideBytes:     16,
			JumpProb:        0.05,
		}}
	}
	for _, sc := range streams {
		ws := sc.WorkingSetBytes
		if ws == 0 {
			ws = 1 << 16
		}
		ex.streams = append(ex.streams, dataStream{
			cfg: sc, ws: ws, stride: sc.StrideBytes, jumpProb: sc.JumpProb, base: sc.Base,
		})
	}
	return ex
}

// PC returns the address of the next instruction to execute.
func (ex *Executor) PC() addr.VAddr { return ex.pc }

// Steps returns how many instructions have executed.
func (ex *Executor) Steps() uint64 { return ex.steps }

// CallDepth returns the current call-stack depth.
func (ex *Executor) CallDepth() int { return len(ex.stack) }

// Step executes one instruction and returns what happened.
func (ex *Executor) Step() Step {
	var st Step
	ex.stepInto(&st)
	return st
}

// StepN executes len(dst) instructions, writing each outcome in place —
// program.Batcher for the pipeline's step buffer. Equivalent to len(dst)
// consecutive Step calls (same RNG consumption, same stack discipline), but
// the interpreter body is specialized here with the image, code slice and PC
// held in locals across the whole batch instead of reloaded through ex per
// instruction — the cursor writes back once at the end.
func (ex *Executor) StepN(dst []Step) {
	img := ex.img
	base, end := img.Base, ex.end
	code, run := img.Code, img.plainRun
	pc := ex.pc
	for i := range dst {
		st := &dst[i]
		if pc < base || pc >= end {
			panic(fmt.Sprintf("program %s: correct path escaped image at %#x", img.Name, uint64(pc)))
		}
		idx := (pc - base) / addr.InstBytes
		in := &code[idx]
		st.PC = pc
		st.Inst = in
		st.Taken = false
		st.Kind = in.Kind
		st.Plain = run[idx] != 0
		st.Data = 0
		next := pc + addr.InstBytes
		switch in.Kind {
		case isa.CondBranch:
			if ex.rng.Bool(float64(in.TakenBias)) {
				st.Taken = true
				next = in.Target
			}
		case isa.Jump:
			st.Taken = true
			next = in.Target
		case isa.Call:
			st.Taken = true
			next = in.Target
			if len(ex.stack) < maxCallDepth {
				ex.stack = append(ex.stack, pc+addr.InstBytes)
			}
		case isa.Ret:
			st.Taken = true
			if n := len(ex.stack); n > 0 {
				next = ex.stack[n-1]
				ex.stack = ex.stack[:n-1]
			} else {
				next = img.Entry
			}
		case isa.IndJump:
			st.Taken = true
			next = ex.pickIndirect(pc)
		case isa.Load, isa.Store:
			st.Data = ex.nextData(int(in.DataStream))
		}
		st.Next = next
		pc = next
	}
	ex.pc = pc
	ex.steps += uint64(len(dst))
}

// stepInto is the single-instruction interpreter shared by Step and StepN.
func (ex *Executor) stepInto(st *Step) {
	pc := ex.pc
	img := ex.img
	if pc < img.Base || pc >= ex.end {
		panic(fmt.Sprintf("program %s: correct path escaped image at %#x", img.Name, uint64(pc)))
	}
	idx := (pc - img.Base) / addr.InstBytes
	in := &img.Code[idx]
	st.PC = pc
	st.Inst = in
	st.Taken = false
	st.Kind = in.Kind
	st.Plain = img.plainRun[idx] != 0
	st.Next = pc + addr.InstBytes
	st.Data = 0

	switch in.Kind {
	case isa.CondBranch:
		st.Taken = ex.rng.Bool(float64(in.TakenBias))
		if st.Taken {
			st.Next = in.Target
		}
	case isa.Jump:
		st.Taken = true
		st.Next = in.Target
	case isa.Call:
		st.Taken = true
		st.Next = in.Target
		if len(ex.stack) < maxCallDepth {
			ex.stack = append(ex.stack, pc+addr.InstBytes)
		}
	case isa.Ret:
		st.Taken = true
		if n := len(ex.stack); n > 0 {
			st.Next = ex.stack[n-1]
			ex.stack = ex.stack[:n-1]
		} else {
			// Unmatched return: restart at the entry. The generator emits
			// matched pairs, so this is a safety net, not a hot path.
			st.Next = img.Entry
		}
	case isa.IndJump:
		st.Taken = true
		st.Next = ex.pickIndirect(pc)
	case isa.Load, isa.Store:
		st.Data = ex.nextData(int(in.DataStream))
	}

	ex.pc = st.Next
	ex.steps++
}

// executorState is the Executor's SourceState: position, call stack, RNG
// cursor and per-stream data positions. Everything is copied, nothing
// aliased, so a published state can seed many executors concurrently.
type executorState struct {
	pc    addr.VAddr
	stack []addr.VAddr
	rng   uint64
	pos   []uint64
	steps uint64
}

// SnapshotState captures the executor's exact position (program.Snapshotter).
func (ex *Executor) SnapshotState() SourceState {
	s := &executorState{
		pc:    ex.pc,
		stack: append([]addr.VAddr(nil), ex.stack...),
		rng:   ex.rng.State(),
		pos:   make([]uint64, len(ex.streams)),
		steps: ex.steps,
	}
	for i := range ex.streams {
		s.pos[i] = ex.streams[i].pos
	}
	return s
}

// RestoreState rewinds the executor to a position captured by SnapshotState
// on an executor built over the same image, seed and stream configuration.
func (ex *Executor) RestoreState(state SourceState) error {
	s, ok := state.(*executorState)
	if !ok {
		return fmt.Errorf("program: %T is not an executor state", state)
	}
	if len(s.pos) != len(ex.streams) {
		return fmt.Errorf("program: state has %d data streams, executor has %d",
			len(s.pos), len(ex.streams))
	}
	ex.pc = s.pc
	ex.stack = append(ex.stack[:0], s.stack...)
	ex.rng.SetState(s.rng)
	for i := range ex.streams {
		ex.streams[i].pos = s.pos[i]
	}
	ex.steps = s.steps
	return nil
}

// pickIndirect selects the target of the IndJump at pc, skewed toward the
// first entry of its set so the BTB retains usable accuracy (real indirect
// branches are dominated by one hot target).
func (ex *Executor) pickIndirect(pc addr.VAddr) addr.VAddr {
	ts := ex.img.targets[pc]
	if len(ts) == 1 {
		return ts[0]
	}
	if ex.rng.Bool(0.70) {
		return ts[0]
	}
	return ts[1+ex.rng.Intn(len(ts)-1)]
}

func (ex *Executor) nextData(stream int) addr.VAddr {
	if stream >= len(ex.streams) {
		stream = stream % len(ex.streams)
	}
	ds := &ex.streams[stream]
	if ds.jumpProb > 0 && ex.rng.Bool(ds.jumpProb) {
		ds.pos = ex.rng.Uint64() % ds.ws
	} else {
		// pos stays < ws between calls, so one add plus a rare reduction is
		// exactly (pos+stride) % ws without the per-access integer division.
		ds.pos += ds.stride
		if ds.pos >= ds.ws {
			ds.pos %= ds.ws
		}
	}
	return ds.base + addr.VAddr(ds.pos)
}
