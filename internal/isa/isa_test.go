package isa

import (
	"reflect"
	"testing"
	"unsafe"
)

func TestKindClassification(t *testing.T) {
	cases := []struct {
		k           Kind
		cti, direct bool
		cond, mem   bool
	}{
		{IntALU, false, false, false, false},
		{IntMul, false, false, false, false},
		{FPALU, false, false, false, false},
		{FPMul, false, false, false, false},
		{Load, false, false, false, true},
		{Store, false, false, false, true},
		{CondBranch, true, true, true, false},
		{Jump, true, true, false, false},
		{Call, true, true, false, false},
		{Ret, true, false, false, false},
		{IndJump, true, false, false, false},
	}
	for _, c := range cases {
		if got := c.k.IsCTI(); got != c.cti {
			t.Errorf("%v.IsCTI() = %v, want %v", c.k, got, c.cti)
		}
		if got := c.k.IsDirect(); got != c.direct {
			t.Errorf("%v.IsDirect() = %v, want %v", c.k, got, c.direct)
		}
		if got := c.k.IsConditional(); got != c.cond {
			t.Errorf("%v.IsConditional() = %v, want %v", c.k, got, c.cond)
		}
		if got := c.k.IsMem(); got != c.mem {
			t.Errorf("%v.IsMem() = %v, want %v", c.k, got, c.mem)
		}
	}
}

func TestDirectImpliesCTI(t *testing.T) {
	for k := Kind(0); int(k) < NumKinds; k++ {
		if k.IsDirect() && !k.IsCTI() {
			t.Errorf("%v is direct but not a CTI", k)
		}
		if k.IsConditional() && !k.IsCTI() {
			t.Errorf("%v is conditional but not a CTI", k)
		}
	}
}

func TestKindString(t *testing.T) {
	if CondBranch.String() != "br" {
		t.Errorf("CondBranch.String() = %q", CondBranch.String())
	}
	if Kind(200).String() == "" {
		t.Error("out-of-range Kind should still produce a string")
	}
}

func TestLatencyPositive(t *testing.T) {
	for k := Kind(0); int(k) < NumKinds; k++ {
		if k.Latency() < 1 {
			t.Errorf("%v.Latency() = %d, want >= 1", k, k.Latency())
		}
	}
	if IntMul.Latency() <= IntALU.Latency() {
		t.Error("IntMul should be slower than IntALU")
	}
	if FPMul.Latency() <= FPALU.Latency() {
		t.Error("FPMul should be slower than FPALU")
	}
}

// TestInstSize pins Inst at 16 bytes: code images hold one per instruction
// slot, so each byte here is a byte per slot of every image. Facts that not
// every instruction needs belong in program.Image, not in Inst.
func TestInstSize(t *testing.T) {
	want := map[string]uintptr{
		"Target": 8, "TakenBias": 4, "Kind": 1, "InPage": 1, "BoundaryStub": 1, "DataStream": 1,
	}
	typ := reflect.TypeOf(Inst{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if w, ok := want[f.Name]; !ok {
			t.Errorf("Inst gained field %s (%d bytes)", f.Name, f.Type.Size())
		} else if f.Type.Size() != w {
			t.Errorf("Inst.%s grew from %d to %d bytes", f.Name, w, f.Type.Size())
		}
	}
	if got := unsafe.Sizeof(Inst{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Inst{}) = %d, want 16 (field order or padding changed?)", got)
	}
}
