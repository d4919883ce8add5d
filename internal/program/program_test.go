package program

import (
	"testing"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/isa"
)

// tinyLoop builds: 0: alu, 1: alu, 2: br -> 0 (bias b), 3: jmp -> 0.
func tinyLoop(bias float32) *Image {
	base := addr.VAddr(0x40_0000)
	code := []isa.Inst{
		{Kind: isa.IntALU},
		{Kind: isa.IntALU},
		{Kind: isa.CondBranch, Target: base, TakenBias: bias},
		{Kind: isa.Jump, Target: base},
	}
	return NewImage("tiny", base, addr.DefaultGeometry, code, nil)
}

func TestImageBasics(t *testing.T) {
	im := tinyLoop(0.5)
	if im.Len() != 4 {
		t.Fatalf("Len = %d", im.Len())
	}
	if im.End() != im.Base+16 {
		t.Errorf("End = %#x", uint64(im.End()))
	}
	if !im.Contains(im.Base) || !im.Contains(im.Base+12) {
		t.Error("Contains should accept in-range aligned addresses")
	}
	if im.Contains(im.Base+16) || im.Contains(im.Base-4) || im.Contains(im.Base+2) {
		t.Error("Contains should reject out-of-range or unaligned addresses")
	}
	if im.Pages() != 1 {
		t.Errorf("Pages = %d", im.Pages())
	}
	if err := im.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestAtOutOfRangeIsNop(t *testing.T) {
	im := tinyLoop(0.5)
	in := im.At(im.End() + 400)
	if in.Kind != isa.IntALU || in.Kind.IsCTI() {
		t.Error("out-of-image fetch should decode as plain ALU")
	}
}

// TestPlainRunMatchesNaiveScan checks the image's plain-run lengths
// against a direct scan of the Plain bits at every instruction, over a code
// mix with BOUNDARY stubs, a plain last instruction and a plain run longer
// than the 255 the table saturates at; and checks that addresses outside
// the image or misaligned give 0 while At gives the nop.
func TestPlainRunMatchesNaiveScan(t *testing.T) {
	base := addr.VAddr(0x40_0000)
	code := make([]isa.Inst, 1500)
	for i := range code {
		code[i] = isa.Inst{Kind: isa.IntALU}
		switch {
		case i > 600 && i < 1200: // plain runs of 414 and 184
			code[i] = isa.Inst{Kind: isa.Load}
		case i%97 == 13:
			code[i] = isa.Inst{Kind: isa.CondBranch, Target: base}
		case i%211 == 7:
			code[i] = isa.Inst{Kind: isa.Jump, Target: base, BoundaryStub: true}
		}
	}
	code[1015] = isa.Inst{Kind: isa.IntALU, BoundaryStub: true} // a stub is never plain
	im := NewImage("runs", base, addr.DefaultGeometry, code, nil)
	saturated := false
	for i := range code {
		naive := 0
		for j := i; j < len(code) && !code[j].Kind.IsCTI() && !code[j].BoundaryStub; j++ {
			naive++
		}
		if naive > 255 {
			naive, saturated = 255, true
		}
		if got := im.PlainRun(addr.InstAddr(base, i)); got != naive {
			t.Fatalf("PlainRun at index %d = %d, want %d", i, got, naive)
		}
	}
	if !saturated {
		t.Error("the code mix never reached the 255 cap")
	}
	if got := im.PlainRun(addr.InstAddr(base, len(code)-1)); got != 1 {
		t.Errorf("PlainRun at the plain last instruction = %d, want 1", got)
	}
	for _, pc := range []addr.VAddr{base - 4, im.End(), im.End() + 4096, base + 2, base + 4*700 + 1, 0, ^addr.VAddr(0)} {
		if got := im.PlainRun(pc); got != 0 {
			t.Errorf("PlainRun(%#x) = %d, want 0 outside the image or misaligned", uint64(pc), got)
		}
		if in := im.At(pc); in != &im.nop {
			t.Errorf("At(%#x) should decode as the nop", uint64(pc))
		}
	}
}

func TestValidateCatchesBadTargets(t *testing.T) {
	im := tinyLoop(0.5)
	im.Code[3].Target = im.End() + 4
	if err := im.Validate(); err == nil {
		t.Error("Validate should reject out-of-image target")
	}
	im2 := tinyLoop(0.5)
	im2.Code[1] = isa.Inst{Kind: isa.IndJump}
	if err := im2.Validate(); err == nil {
		t.Error("Validate should reject empty indirect target set")
	}
	im3 := tinyLoop(0.5)
	im3.Entry = im3.End()
	if err := im3.Validate(); err == nil {
		t.Error("Validate should reject bad entry")
	}
	loop := tinyLoop(0.5)
	im4 := NewImage("stray", loop.Base, loop.Geom, loop.Code,
		map[addr.VAddr][]addr.VAddr{loop.Base: {loop.Base}})
	if err := im4.Validate(); err == nil {
		t.Error("Validate should reject a target set on a non-indirect instruction")
	}
	im5 := NewImage("ijmp", loop.Base, loop.Geom, []isa.Inst{{Kind: isa.IndJump}},
		map[addr.VAddr][]addr.VAddr{loop.Base: {loop.End()}})
	if err := im5.Validate(); err == nil {
		t.Error("Validate should reject an indirect target outside the image")
	}
}

func TestPagesSpanning(t *testing.T) {
	base := addr.VAddr(0x1000)
	code := make([]isa.Inst, 3000) // 12000 bytes: pages 1,2,3 of 4KB
	im := NewImage("span", base, addr.DefaultGeometry, code, nil)
	if im.Pages() != 3 {
		t.Errorf("Pages = %d, want 3", im.Pages())
	}
}

func TestExecutorFollowsControlFlow(t *testing.T) {
	im := tinyLoop(1.0) // branch always taken
	ex := NewExecutor(im, 1, nil)
	s := ex.Step()
	if s.PC != im.Base || s.Next != im.Base+4 {
		t.Fatalf("step0: %+v", s)
	}
	ex.Step() // alu at +4
	s = ex.Step()
	if s.Inst.Kind != isa.CondBranch || !s.Taken || s.Next != im.Base {
		t.Fatalf("always-taken branch: %+v", s)
	}
	if ex.Steps() != 3 {
		t.Errorf("Steps = %d", ex.Steps())
	}
}

func TestExecutorNotTakenFallsThrough(t *testing.T) {
	im := tinyLoop(0.0)
	ex := NewExecutor(im, 1, nil)
	ex.Step()
	ex.Step()
	s := ex.Step()
	if s.Taken || s.Next != s.PC+4 {
		t.Fatalf("never-taken branch: %+v", s)
	}
	// Falls through to the jump, which loops back.
	s = ex.Step()
	if s.Inst.Kind != isa.Jump || s.Next != im.Base {
		t.Fatalf("jump: %+v", s)
	}
}

func TestExecutorBiasStatistics(t *testing.T) {
	im := tinyLoop(0.7)
	ex := NewExecutor(im, 99, nil)
	taken, total := 0, 0
	for total < 10000 {
		s := ex.Step()
		if s.Inst.Kind == isa.CondBranch {
			total++
			if s.Taken {
				taken++
			}
		}
		if total >= 10000 {
			break
		}
	}
	frac := float64(taken) / float64(total)
	if frac < 0.66 || frac > 0.74 {
		t.Errorf("taken fraction = %v, want ~0.7", frac)
	}
}

func TestCallReturnMatching(t *testing.T) {
	base := addr.VAddr(0x40_0000)
	// 0: call ->3, 1: alu, 2: jmp ->0, 3: alu, 4: ret
	code := []isa.Inst{
		{Kind: isa.Call, Target: base + 12},
		{Kind: isa.IntALU},
		{Kind: isa.Jump, Target: base},
		{Kind: isa.IntALU},
		{Kind: isa.Ret},
	}
	im := NewImage("callret", base, addr.DefaultGeometry, code, nil)
	if err := im.Validate(); err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(im, 1, nil)
	s := ex.Step()
	if s.Next != base+12 || ex.CallDepth() != 1 {
		t.Fatalf("call: %+v depth=%d", s, ex.CallDepth())
	}
	ex.Step() // callee alu
	s = ex.Step()
	if s.Inst.Kind != isa.Ret || s.Next != base+4 || ex.CallDepth() != 0 {
		t.Fatalf("ret: %+v depth=%d", s, ex.CallDepth())
	}
}

func TestUnmatchedReturnRestartsAtEntry(t *testing.T) {
	base := addr.VAddr(0x40_0000)
	code := []isa.Inst{{Kind: isa.Ret}}
	im := NewImage("ret", base, addr.DefaultGeometry, code, nil)
	ex := NewExecutor(im, 1, nil)
	s := ex.Step()
	if s.Next != im.Entry {
		t.Errorf("unmatched ret should restart at entry, got %#x", uint64(s.Next))
	}
}

func TestIndirectJumpSkew(t *testing.T) {
	base := addr.VAddr(0x40_0000)
	t0, t1 := base+8, base+12
	code := []isa.Inst{
		{Kind: isa.IndJump},
		{Kind: isa.IntALU},
		{Kind: isa.Jump, Target: base}, // t0
		{Kind: isa.Jump, Target: base}, // t1
	}
	im := NewImage("ijmp", base, addr.DefaultGeometry, code, map[addr.VAddr][]addr.VAddr{base: {t0, t1}})
	ex := NewExecutor(im, 5, nil)
	hot := 0
	total := 0
	for total < 5000 {
		s := ex.Step()
		if s.Inst.Kind == isa.IndJump {
			total++
			if s.Next == t0 {
				hot++
			}
		}
	}
	frac := float64(hot) / float64(total)
	if frac < 0.66 || frac > 0.74 {
		t.Errorf("hot-target fraction = %v, want ~0.70", frac)
	}
}

func TestDataStreams(t *testing.T) {
	base := addr.VAddr(0x40_0000)
	code := []isa.Inst{
		{Kind: isa.Load, DataStream: 0},
		{Kind: isa.Store, DataStream: 1},
		{Kind: isa.Jump, Target: base},
	}
	im := NewImage("mem", base, addr.DefaultGeometry, code, nil)
	streams := []DataStreamConfig{
		{Base: 0x1000_0000, WorkingSetBytes: 1 << 12, StrideBytes: 8},
		{Base: 0x2000_0000, WorkingSetBytes: 1 << 12, StrideBytes: 64},
	}
	ex := NewExecutor(im, 3, streams)
	for i := 0; i < 300; i++ {
		s := ex.Step()
		switch s.Inst.Kind {
		case isa.Load:
			if s.Data < 0x1000_0000 || s.Data >= 0x1000_0000+(1<<12) {
				t.Fatalf("load address %#x escapes working set", uint64(s.Data))
			}
		case isa.Store:
			if s.Data < 0x2000_0000 || s.Data >= 0x2000_0000+(1<<12) {
				t.Fatalf("store address %#x escapes working set", uint64(s.Data))
			}
		}
	}
}

func TestExecutorDeterminism(t *testing.T) {
	im := tinyLoop(0.6)
	a := NewExecutor(im, 77, nil)
	b := NewExecutor(im, 77, nil)
	for i := 0; i < 2000; i++ {
		sa, sb := a.Step(), b.Step()
		if sa.PC != sb.PC || sa.Next != sb.Next || sa.Taken != sb.Taken {
			t.Fatal("same seed must replay identically")
		}
	}
}

func TestExecutorPanicsOffImage(t *testing.T) {
	im := tinyLoop(0.5)
	ex := NewExecutor(im, 1, nil)
	ex.pc = im.End() + 64
	defer func() {
		if recover() == nil {
			t.Error("expected panic when the correct path escapes the image")
		}
	}()
	ex.Step()
}
