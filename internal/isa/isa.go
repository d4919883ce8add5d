// Package isa defines the synthetic instruction set executed by the
// simulator.
//
// The machine is a RISC-style design with fixed 4-byte instructions. The set
// is deliberately small — just enough structure for the paper's mechanisms:
// control-flow instructions carry either a statically encoded target (direct;
// "analyzable" in the paper's Table 4 terminology) or take their target from
// run-time state (indirect; not analyzable). Direct branches additionally
// carry the single "in-page" bit that the SoLA and IA schemes of the paper
// rely on (§3.3.3), and instructions can be marked as compiler-inserted
// page-BOUNDARY stubs (§3.3.2).
package isa

import (
	"fmt"

	"itlbcfr/internal/addr"
)

// Kind enumerates instruction classes.
type Kind uint8

const (
	// IntALU is a single-cycle integer operation.
	IntALU Kind = iota
	// IntMul is a multi-cycle integer multiply/divide.
	IntMul
	// FPALU is a pipelined floating-point add/sub/convert.
	FPALU
	// FPMul is a multi-cycle floating-point multiply/divide.
	FPMul
	// Load reads memory through the dL1/dTLB.
	Load
	// Store writes memory through the dL1/dTLB.
	Store
	// CondBranch is a conditional direct branch (target encoded).
	CondBranch
	// Jump is an unconditional direct jump (target encoded).
	Jump
	// Call is a direct call: jumps to target, pushes the return address.
	Call
	// Ret is an indirect return: target is the top of the call stack.
	Ret
	// IndJump is an indirect jump (e.g. a switch table): target chosen at
	// run time from the site's target set.
	IndJump

	numKinds
)

// NumKinds is the count of instruction kinds, exported for table sizing.
const NumKinds = int(numKinds)

var kindNames = [...]string{
	IntALU:     "int",
	IntMul:     "imul",
	FPALU:      "fp",
	FPMul:      "fmul",
	Load:       "load",
	Store:      "store",
	CondBranch: "br",
	Jump:       "jmp",
	Call:       "call",
	Ret:        "ret",
	IndJump:    "ijmp",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Kind-class bitmasks: the predicates below sit on the simulator's
// per-instruction hot path, where a single shift-and-test beats a
// multi-way comparison chain.
const (
	ctiMask    = 1<<CondBranch | 1<<Jump | 1<<Call | 1<<Ret | 1<<IndJump
	directMask = 1<<CondBranch | 1<<Jump | 1<<Call
	memMask    = 1<<Load | 1<<Store
)

// IsCTI reports whether k is a control-transfer instruction. Every CTI is a
// "branch" in the paper's accounting: SoCA forces an iTLB lookup at the
// target of each one.
func (k Kind) IsCTI() bool { return ctiMask&(1<<k) != 0 }

// IsDirect reports whether k's target is statically encoded, i.e. whether
// the compiler can analyze it (Table 4 "Analyzable").
func (k Kind) IsDirect() bool { return directMask&(1<<k) != 0 }

// IsConditional reports whether k consults the direction predictor.
func (k Kind) IsConditional() bool { return k == CondBranch }

// IsMem reports whether k accesses data memory.
func (k Kind) IsMem() bool { return memMask&(1<<k) != 0 }

// Inst is one decoded instruction of the synthetic code image.
//
// The struct carries both architectural fields (Kind, Target, InPage,
// BoundaryStub) and a synthetic-workload behavioural field (TakenBias) that
// stands in for program semantics: a real benchmark binary decides branch
// outcomes from data, our code images decide them from a deterministic
// per-site random stream biased by TakenBias. Facts about an instruction
// that the image can hold more compactly live there instead: an IndJump's
// target set (program.Image.TargetSet) and whether the slot is plain
// (program.Image.PlainRun). Fields are ordered so that Inst packs into 16
// bytes; images hold one per instruction slot.
type Inst struct {
	// Target is the statically encoded destination for direct CTIs.
	Target addr.VAddr

	// TakenBias is the probability that a CondBranch is taken. Biased sites
	// (near 0 or 1) model loops and error checks; balanced sites model
	// data-dependent control flow and bound the bimodal predictor's accuracy.
	TakenBias float32

	Kind Kind

	// InPage is the compiler-set SoLA bit (§3.3.3): the branch is direct and
	// its target lies in the same virtual page as the branch itself, so no
	// iTLB lookup is needed for it.
	InPage bool

	// BoundaryStub marks a compiler-inserted Jump at the last slot of a page
	// whose target is the first instruction of the next page (§3.3.2). Its
	// lookups are accounted to the BOUNDARY column of Tables 2 and 3.
	BoundaryStub bool

	// DataStream selects which synthetic data address stream a Load/Store
	// uses; streams have distinct working sets and strides.
	DataStream uint8
}

// Latency returns the execution latency in cycles for the back-end model.
// Values follow the usual SimpleScalar defaults for these classes.
func (k Kind) Latency() int {
	switch k {
	case IntALU, CondBranch, Jump, Call, Ret, IndJump:
		return 1
	case IntMul:
		return 3
	case FPALU:
		return 2
	case FPMul:
		return 4
	case Load, Store:
		return 1 // cache latency added separately by the memory model
	}
	return 1
}
