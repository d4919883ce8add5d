package sim_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/energy"
	"itlbcfr/internal/isa"
	"itlbcfr/internal/program"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/workload"
)

func mesa(t *testing.T) workload.Profile {
	t.Helper()
	p, err := workload.ByName("mesa")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

var styles = []cache.Style{cache.VIVT, cache.VIPT, cache.PIPT}

// withoutTiming zeroes the host-time fields, the only legitimately
// nondeterministic part of a Result.
func withoutTiming(r sim.Result) sim.Result {
	r.WallSeconds = 0
	r.Timing = sim.Timing{}
	return r
}

// TestImageTableMatchesRun runs every scheme × iL1 style on one pool from
// four goroutines, each in its own order, so the image table's single-flight
// compile and the warm forks race each other (the CI -race step runs this).
// Every pooled result must equal the unpooled sim.Run reference field for
// field, and the table must end up holding exactly the two images the
// schemes need: with and without BOUNDARY stubs.
func TestImageTableMatchesRun(t *testing.T) {
	var jobs []sim.Options
	for _, sc := range core.Schemes() {
		for _, st := range styles {
			jobs = append(jobs, sim.Options{Profile: mesa(t), Scheme: sc, Style: st,
				Instructions: 3_000, Warmup: 1_000})
		}
	}
	want := make([]sim.Result, len(jobs))
	for i, o := range jobs {
		r, err := sim.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = withoutTiming(r)
	}

	const goroutines = 4
	pool := sim.NewWarmPool()
	got := make([][]sim.Result, goroutines)
	errs := make([][]error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		got[g] = make([]sim.Result, len(jobs))
		errs[g] = make([]error, len(jobs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				i := (k + 5*g) % len(jobs) // rotated, and reversed on odd goroutines
				if g%2 == 1 {
					i = len(jobs) - 1 - i
				}
				got[g][i], errs[g][i] = sim.RunWith(jobs[i], pool)
			}
		}()
	}
	wg.Wait()
	for g := range goroutines {
		for i, o := range jobs {
			if errs[g][i] != nil {
				t.Fatalf("goroutine %d, %s/%s: %v", g, o.Scheme, o.Style, errs[g][i])
			}
			if r := withoutTiming(got[g][i]); !reflect.DeepEqual(r, want[i]) {
				t.Errorf("goroutine %d, %s/%s diverges from sim.Run:\npooled: %+v\nplain:  %+v",
					g, o.Scheme, o.Style, r, want[i])
			}
		}
	}
	if st := pool.Stats(); st.Images != 2 || st.Entries != len(jobs) {
		t.Errorf("pool stats = %+v, want 2 images and %d warm entries", st, len(jobs))
	}
}

// codeHash fingerprints everything a simulation reads from an image: the
// code, each slot's plain run and each indirect jump's target set.
func codeHash(img *program.Image) string {
	h := sha256.New()
	fmt.Fprint(h, img.Name, img.Base, img.Entry, img.Geom, img.Code)
	for i := range img.Code {
		pc := addr.InstAddr(img.Base, i)
		fmt.Fprint(h, img.PlainRun(pc))
		if img.Code[i].Kind == isa.IndJump {
			fmt.Fprint(h, pc, img.TargetSet(pc))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestImageTableSharesReadOnlyImages checks, through the build path, which
// builds share a compiled image: those agreeing on profile, page size and
// whether the scheme needs stubs — whatever their style or lengths — and no
// others. It then runs every sharing build and checks the shared image's
// bytes are unchanged, guarding against any simulation writing to it.
func TestImageTableSharesReadOnlyImages(t *testing.T) {
	base := sim.Options{Profile: mesa(t), Scheme: core.IA, Style: cache.VIPT,
		Instructions: 4_000, Warmup: 1_000}
	pool := sim.NewWarmPool()
	image := func(o sim.Options, p *sim.WarmPool) *program.Image {
		t.Helper()
		img, err := sim.BuiltImage(o, p)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	shared := image(base, pool)
	before := codeHash(shared)

	same := []sim.Options{base, base, base, base}
	same[1].Scheme = core.SoLA // also needs stubs
	same[2].Style = cache.PIPT
	same[3].Instructions, same[3].Warmup = 9_000, 2_000
	for i, o := range same {
		if img := image(o, pool); img != shared {
			t.Errorf("build %d (%s/%s) got its own image, want the shared one", i, o.Scheme, o.Style)
		}
	}
	differ := []sim.Options{base, base, base}
	differ[0].Scheme = core.Base // no stubs
	differ[1].PageBytes = 8 << 10
	differ[2].Profile.Seed++
	for i, o := range differ {
		if img := image(o, pool); img == shared {
			t.Errorf("build %d shares an image it must not (scheme %s, page %d)", i, o.Scheme, o.PageBytes)
		}
	}
	if img := image(base, nil); img == shared || codeHash(img) != before {
		t.Error("a nil pool must compile a fresh, identical image")
	}

	for _, o := range append(same, differ...) {
		if _, err := sim.RunWith(o, pool); err != nil {
			t.Fatal(err)
		}
	}
	if after := codeHash(shared); after != before {
		t.Error("running simulations modified a shared image")
	}
	if st := pool.Stats(); st.Images != 4 {
		t.Errorf("pool holds %d images, want 4 (shared, no-stub, 8KB page, reseeded)", st.Images)
	}

	// mesa executes no indirect jump at these lengths; vortex executes
	// dozens, so a simulation writing through a shared target set shows here.
	vortex, err := workload.ByName("vortex")
	if err != nil {
		t.Fatal(err)
	}
	vo := base
	vo.Profile = vortex
	vshared := image(vo, pool)
	vbefore := codeHash(vshared)
	for _, sc := range []core.Scheme{core.Base, core.IA} {
		vo.Scheme = sc
		if _, err := sim.RunWith(vo, pool); err != nil {
			t.Fatal(err)
		}
	}
	if codeHash(vshared) != vbefore {
		t.Error("running vortex simulations modified its shared image")
	}
}

// TestValidateRejectsNonFinite pins that no accepted configuration carries
// a NaN or infinity: each would make the JSON key encodings panic, and a
// NaN profile never equals itself, so it would grow the image table by one
// entry per build. Every float field of the profile is covered by
// reflection, so a field added later is covered too.
func TestValidateRejectsNonFinite(t *testing.T) {
	type tc struct {
		name string
		opt  sim.Options
	}
	var cases []tc
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		pt := reflect.TypeOf(workload.Profile{})
		for i := range pt.NumField() {
			if pt.Field(i).Type.Kind() != reflect.Float64 {
				continue
			}
			o := sim.Options{Profile: mesa(t), Scheme: core.IA}
			reflect.ValueOf(&o.Profile).Elem().Field(i).SetFloat(v)
			cases = append(cases, tc{fmt.Sprintf("Profile.%s=%v", pt.Field(i).Name, v), o})
		}
		pcfg := sim.DefaultPipeline()
		pcfg.MLPFactor = v
		cases = append(cases, tc{fmt.Sprintf("MLPFactor=%v", v),
			sim.Options{Profile: mesa(t), Scheme: core.IA, Pipeline: &pcfg}})
		cases = append(cases, tc{fmt.Sprintf("FeatureNm=%v", v),
			sim.Options{Profile: mesa(t), Scheme: core.IA, Tech: &energy.Tech{FeatureNm: v}}})
	}
	pool := sim.NewWarmPool()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.opt.Validate(); err == nil {
				t.Fatal("Validate accepted a non-finite value")
			}
			if _, err := sim.RunWith(c.opt, pool); err == nil {
				t.Error("RunWith accepted a non-finite value")
			}
			if _, err := pool.StaticStats(c.opt); err == nil {
				t.Error("StaticStats accepted a non-finite value")
			}
		})
	}
	if st := pool.Stats(); st.Images != 0 || st.Entries != 0 {
		t.Errorf("rejected configurations left pool state behind: %+v", st)
	}
}

// denseWarmBytes is what one warm state's arrays occupy when every line and
// entry is copied: a tag and an LRU word per cache line, four words per BTB
// and TLB entry, a byte per bimodal counter and a word per RAS slot.
func denseWarmBytes(o sim.Options) int {
	c := o.Canonical()
	p := c.Pipeline
	n := 0
	for _, cc := range []cache.Config{p.IL1, p.DL1, p.L2} {
		n += 16 * cc.SizeBytes / cc.BlockBytes
	}
	n += 32*p.Bpred.BTBEntries + p.Bpred.BimodalEntries + 8*p.Bpred.RASEntries
	for _, e := range append(p.DTLB.EntriesPerLevel(), c.ITLB.EntriesPerLevel()...) {
		n += 32 * e
	}
	return n
}

// TestWarmStateIsSparse pins a regeneration-length warm state (mesa, IA,
// VI-PT, n=150k, warm-up 30k) at no more than a third of its dense size,
// and checks the pool reports it.
func TestWarmStateIsSparse(t *testing.T) {
	o := sim.Options{Profile: mesa(t), Scheme: core.IA, Style: cache.VIPT,
		Instructions: 150_000, Warmup: 30_000}
	pool := sim.NewWarmPool()
	if _, err := sim.RunWith(o, pool); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	dense := denseWarmBytes(o)
	t.Logf("warm state: %d bytes, dense %d (%.1f%%)", st.Bytes, dense, 100*float64(st.Bytes)/float64(dense))
	if st.Entries != 1 || st.Images != 1 {
		t.Errorf("pool stats = %+v, want 1 warm entry and 1 image", st)
	}
	if st.Bytes <= 0 || st.Bytes > int64(dense/3) {
		t.Errorf("warm state is %d bytes, want (0, %d]: a third of the dense %d", st.Bytes, dense/3, dense)
	}
}
