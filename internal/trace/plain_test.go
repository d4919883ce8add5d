package trace

import (
	"bytes"
	"io"
	"testing"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/compiler"
	"itlbcfr/internal/program"
	"itlbcfr/internal/workload"
)

// TestStepPlainMatchesKind pins what the image's plain-run table must say:
// a slot is plain exactly when it is neither a CTI nor a BOUNDARY stub, and
// every step a source produces (executor Step and StepN, trace replay
// records, synthesized stubs and wrap jumps) carries that same bit.
func TestStepPlainMatchesKind(t *testing.T) {
	checkImage := func(t *testing.T, img *program.Image) {
		t.Helper()
		for i := range img.Code {
			in := &img.Code[i]
			pc := addr.InstAddr(img.Base, i)
			if want := !in.Kind.IsCTI() && !in.BoundaryStub; (img.PlainRun(pc) > 0) != want {
				t.Fatalf("slot %#x (%v, stub=%v): PlainRun = %d, plain = %v",
					uint64(pc), in.Kind, in.BoundaryStub, img.PlainRun(pc), want)
			}
		}
		if img.PlainRun(img.End()) != 0 || img.PlainRun(img.Base-addr.InstBytes) != 0 {
			t.Fatal("PlainRun outside the image must be 0")
		}
	}
	checkSteps := func(t *testing.T, steps []program.Step) {
		t.Helper()
		for _, st := range steps {
			if want := !st.Kind.IsCTI() && !st.Inst.BoundaryStub; st.Plain != want || st.Kind != st.Inst.Kind {
				t.Fatalf("step at %#x (%v, stub=%v): Plain = %v, want %v",
					uint64(st.PC), st.Inst.Kind, st.Inst.BoundaryStub, st.Plain, want)
			}
		}
	}
	for _, p := range workload.Profiles() {
		src := workload.MustGenerate(p)
		for _, stubs := range []bool{false, true} {
			t.Run(p.Name+map[bool]string{false: "/plain", true: "/stubs"}[stubs], func(t *testing.T) {
				img, _, err := compiler.Compile(src, compiler.Options{InsertBoundaryStubs: stubs})
				if err != nil {
					t.Fatal(err)
				}
				checkImage(t, img)
				ex := program.NewExecutor(img, 1, p.DataStreams())
				buf := make([]program.Step, 512)
				for k := 0; k < 40; k++ {
					ex.StepN(buf)
					checkSteps(t, buf)
					checkSteps(t, []program.Step{ex.Step()})
				}
			})
		}
	}

	var raw bytes.Buffer
	if _, err := SynthesizeTo(&raw, SynthConfig{Seed: 3, Instructions: 20_000}); err != nil {
		t.Fatal(err)
	}
	open := func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(raw.Bytes())), nil }
	for _, stubs := range []bool{false, true} {
		t.Run(map[bool]string{false: "trace/plain", true: "trace/stubs"}[stubs], func(t *testing.T) {
			r, err := NewReplay(open, "", addr.DefaultGeometry, stubs)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			checkImage(t, r.Image())
			// Past the end of the trace, so the wrap jump is checked too.
			buf := make([]program.Step, 1000)
			for k := 0; k < 25; k++ {
				r.StepN(buf)
				checkSteps(t, buf)
			}
			if r.Wraps() == 0 {
				t.Fatal("replay never wrapped")
			}
		})
	}
}
