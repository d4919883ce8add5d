package compiler

import (
	"testing"
	"testing/quick"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/isa"
	"itlbcfr/internal/program"
	"itlbcfr/internal/workload"
)

// straightImage builds n plain instructions followed by a jump back to base.
func straightImage(n int) *program.Image {
	base := addr.VAddr(0x40_0000)
	code := make([]isa.Inst, n+1)
	for i := 0; i < n; i++ {
		code[i] = isa.Inst{Kind: isa.IntALU}
	}
	code[n] = isa.Inst{Kind: isa.Jump, Target: base}
	return program.NewImage("straight", base, addr.DefaultGeometry, code, nil)
}

func TestNoStubsIsPureCopy(t *testing.T) {
	img := straightImage(3000)
	out, st, err := Compile(img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != img.Len() {
		t.Errorf("no-stub compile changed length: %d -> %d", img.Len(), out.Len())
	}
	if st.Stubs != 0 || st.TotalSites != 1 || st.Analyzable != 1 {
		t.Errorf("stats: %+v", st)
	}
	// Input untouched.
	if img.Code[3000].Target != img.Base {
		t.Error("input image was mutated")
	}
}

func TestStubInsertedAtEveryPageEnd(t *testing.T) {
	// 3000 instructions = 12004 bytes with the jump: spans pages, so the
	// compiled image must have a stub in the last slot of each fully crossed
	// page.
	img := straightImage(3000)
	out, st, err := Compile(img, Options{InsertBoundaryStubs: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Stubs < 2 {
		t.Fatalf("expected at least 2 stubs, got %d", st.Stubs)
	}
	geom := out.Geom
	for i := range out.Code {
		pc := addr.InstAddr(out.Base, i)
		in := &out.Code[i]
		if geom.IsLastInstInPage(pc) && i < out.Len()-1 {
			if !in.BoundaryStub {
				t.Fatalf("last slot %#x of page not a stub: %+v", uint64(pc), in)
			}
			if in.Target != pc+addr.InstBytes {
				t.Fatalf("stub at %#x targets %#x, want next instruction", uint64(pc), uint64(in.Target))
			}
		} else if in.BoundaryStub {
			t.Fatalf("stub at non-boundary slot %#x", uint64(pc))
		}
	}
}

func TestTargetsRemappedAcrossStubs(t *testing.T) {
	// Jump at the end targets base; after relocation it must still target
	// the (moved) first instruction, and the executor must follow the same
	// logical path.
	img := straightImage(3000)
	out, _, err := Compile(img, Options{InsertBoundaryStubs: true})
	if err != nil {
		t.Fatal(err)
	}
	last := out.Len() - 1
	if out.Code[last].Kind != isa.Jump || out.Code[last].Target != out.Base {
		t.Errorf("final jump mis-remapped: %+v", out.Code[last])
	}
}

func TestExecutionEquivalenceModuloStubs(t *testing.T) {
	// The compiled image must execute the same logical instruction sequence
	// as the original, with stubs transparently spliced in.
	img := workload.MustGenerate(workload.Mesa())
	out, _, err := Compile(img, Options{InsertBoundaryStubs: true})
	if err != nil {
		t.Fatal(err)
	}
	exOrig := program.NewExecutor(img, 42, nil)
	exComp := program.NewExecutor(out, 42, nil)
	const steps = 200000
	for i := 0; i < steps; i++ {
		a := exOrig.Step()
		b := exComp.Step()
		for b.Inst.BoundaryStub {
			b = exComp.Step()
		}
		if a.Inst.Kind != b.Inst.Kind || a.Taken != b.Taken {
			t.Fatalf("step %d diverged: orig %v taken=%v, compiled %v taken=%v",
				i, a.Inst.Kind, a.Taken, b.Inst.Kind, b.Taken)
		}
	}
}

func TestInPageMarking(t *testing.T) {
	base := addr.VAddr(0x40_0000)
	code := make([]isa.Inst, 2048) // exactly 2 pages
	for i := range code {
		code[i] = isa.Inst{Kind: isa.IntALU}
	}
	code[10] = isa.Inst{Kind: isa.CondBranch, Target: base + 40, TakenBias: 0.5} // in page 0
	code[20] = isa.Inst{Kind: isa.Jump, Target: base + 4096 + 64}                // crosses to page 1
	code[2047] = isa.Inst{Kind: isa.Jump, Target: base}                          // page 1 -> page 0
	img := program.NewImage("mark", base, addr.DefaultGeometry, code, nil)

	out, st, err := Compile(img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Code[10].InPage {
		t.Error("same-page branch should carry the in-page bit")
	}
	if out.Code[20].InPage || out.Code[2047].InPage {
		t.Error("cross-page CTIs must not be marked in-page")
	}
	if st.TotalSites != 3 || st.Analyzable != 3 || st.InPage != 1 || st.CrossingPage != 2 {
		t.Errorf("stats: %+v", st)
	}
}

func TestIndirectNotAnalyzable(t *testing.T) {
	base := addr.VAddr(0x40_0000)
	code := []isa.Inst{
		{Kind: isa.IndJump},
		{Kind: isa.Ret},
		{Kind: isa.IntALU},
		{Kind: isa.Jump, Target: base},
	}
	img := program.NewImage("ind", base, addr.DefaultGeometry, code, map[addr.VAddr][]addr.VAddr{base: {base + 8, base + 12}})
	_, st, err := Compile(img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalSites != 3 {
		t.Errorf("TotalSites = %d, want 3 (ijmp, ret, jmp)", st.TotalSites)
	}
	if st.Analyzable != 1 {
		t.Errorf("Analyzable = %d, want 1 (only the jmp)", st.Analyzable)
	}
}

func TestIndirectTargetSetsRemapped(t *testing.T) {
	img := workload.MustGenerate(workload.Eon())
	out, _, err := Compile(img, Options{InsertBoundaryStubs: true})
	if err != nil {
		t.Fatal(err)
	}
	// Validate() inside Compile already checks all targets are in-image;
	// additionally check a remapped indirect target decodes to the same kind
	// of instruction it did originally.
	found := false
	for i := range img.Code {
		in := &img.Code[i]
		if in.Kind == isa.IndJump {
			orig := img.At(img.TargetSet(addr.InstAddr(img.Base, i))[0]).Kind
			var outIdx int
			// Find the corresponding instruction in the compiled image by
			// walking: count non-stub instructions.
			n := 0
			for j := range out.Code {
				if out.Code[j].BoundaryStub {
					continue
				}
				if n == i {
					outIdx = j
					break
				}
				n++
			}
			comp := out.At(out.TargetSet(addr.InstAddr(out.Base, outIdx))[0]).Kind
			if orig != comp {
				t.Fatalf("indirect target kind changed: %v -> %v", orig, comp)
			}
			found = true
			break
		}
	}
	if !found {
		t.Skip("no indirect jump in eon image (unexpected)")
	}
}

func TestStaticStatsFractions(t *testing.T) {
	var s StaticStats
	if s.AnalyzableFrac() != 0 || s.InPageFrac() != 0 {
		t.Error("zero stats should yield zero fractions")
	}
	s = StaticStats{TotalSites: 10, Analyzable: 8, InPage: 6, CrossingPage: 2}
	if s.AnalyzableFrac() != 0.8 {
		t.Errorf("AnalyzableFrac = %v", s.AnalyzableFrac())
	}
	if s.InPageFrac() != 0.75 {
		t.Errorf("InPageFrac = %v", s.InPageFrac())
	}
}

func TestGeneratedWorkloadsCompile(t *testing.T) {
	for _, p := range workload.Profiles() {
		img, err := workload.Generate(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		out, st, err := Compile(img, Options{InsertBoundaryStubs: true})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if st.Stubs != out.Pages()-1 && st.Stubs != out.Pages() {
			t.Errorf("%s: %d stubs for %d pages", p.Name, st.Stubs, out.Pages())
		}
		if st.AnalyzableFrac() < 0.5 || st.AnalyzableFrac() > 1 {
			t.Errorf("%s: unreasonable analyzable fraction %v", p.Name, st.AnalyzableFrac())
		}
	}
}

func TestCompileRandomImagesProperty(t *testing.T) {
	// Property: for arbitrary small code images, the stub-inserting compile
	// produces a valid image whose non-stub execution matches the original.
	f := func(seed uint64, nBlocks uint8) bool {
		rng := seed
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int((rng >> 33) % uint64(n))
		}
		n := 600 + int(nBlocks)*17
		base := addr.VAddr(0x40_0000)
		code := make([]isa.Inst, n)
		for i := 0; i < n-1; i++ {
			switch next(7) {
			case 0:
				code[i] = isa.Inst{Kind: isa.CondBranch,
					Target:    addr.InstAddr(base, next(n-1)),
					TakenBias: float32(next(100)) / 100}
			case 1:
				code[i] = isa.Inst{Kind: isa.Jump, Target: addr.InstAddr(base, next(n-1))}
			default:
				code[i] = isa.Inst{Kind: isa.IntALU}
			}
		}
		code[n-1] = isa.Inst{Kind: isa.Jump, Target: base}
		img := program.NewImage("prop", base, addr.DefaultGeometry, code, nil)
		out, _, err := Compile(img, Options{InsertBoundaryStubs: true})
		if err != nil {
			return false
		}
		a := program.NewExecutor(img, seed, nil)
		b := program.NewExecutor(out, seed, nil)
		for i := 0; i < 3000; i++ {
			sa := a.Step()
			sb := b.Step()
			for sb.Inst.BoundaryStub {
				sb = b.Step()
			}
			if sa.Inst.Kind != sb.Inst.Kind || sa.Taken != sb.Taken {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
