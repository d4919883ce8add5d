package compiler

import (
	"slices"
	"testing"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/isa"
	"itlbcfr/internal/program"
	"itlbcfr/internal/xrand"
)

// FuzzCompileTargets compiles random small multi-page images, with and
// without BOUNDARY stubs, and checks the result against a naive model of the
// relocation: the old→new slot map is rebuilt by counting slots and skipping
// each page's last one when stubs are on; every direct target and every
// indirect target set must be the old one mapped through it; every inserted
// slot must be a stub jumping to the next page; the SoLA bit must equal a
// plain same-page test; the input image must be left untouched.
//
// kinds picks each slot's instruction (its low 3 bits the kind, the high
// bits an IndJump's set size of 1–8); seed draws the targets, half of them
// within two pages of the site so in-page sites are common.
func FuzzCompileTargets(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint16(300), []byte{7, 7, 0, 7, 1, 7, 3, 2, 7, 0xfb, 4, 7, 7})
	f.Add(uint64(2), uint8(1), uint8(63), uint16(900), []byte{3, 0, 1, 2, 5, 6, 7, 0x3b})
	f.Add(uint64(3), uint8(2), uint8(200), uint16(1499), []byte{0})
	f.Add(uint64(4), uint8(0), uint8(1), uint16(0), []byte{3})
	f.Fuzz(func(t *testing.T, seed uint64, pageSel, baseSlot uint8, slots uint16, kinds []byte) {
		if len(kinds) == 0 {
			kinds = []byte{7}
		}
		geom, err := addr.NewGeometry(256 << (pageSel % 3))
		if err != nil {
			t.Fatal(err)
		}
		page := geom.PageBytes()
		base := addr.VAddr(0x40_0000) + addr.VAddr(baseSlot)*addr.InstBytes
		n := 1 + int(slots)%1500
		rng := xrand.New(seed)
		target := func(i int) int {
			if rng.Bool(0.5) {
				span := int(2 * page / addr.InstBytes)
				return min(max(i+rng.Range(-span, span), 0), n-1)
			}
			return rng.Intn(n)
		}
		code := make([]isa.Inst, n)
		targets := map[addr.VAddr][]addr.VAddr{}
		for i := range code {
			k := kinds[i%len(kinds)]
			switch k & 7 {
			case 0:
				code[i] = isa.Inst{Kind: isa.CondBranch, Target: addr.InstAddr(base, target(i)), TakenBias: 0.5}
			case 1:
				code[i] = isa.Inst{Kind: isa.Jump, Target: addr.InstAddr(base, target(i))}
			case 2:
				code[i] = isa.Inst{Kind: isa.Call, Target: addr.InstAddr(base, target(i))}
			case 3:
				code[i] = isa.Inst{Kind: isa.IndJump}
				set := make([]addr.VAddr, 1+int(k>>3)%8)
				for j := range set {
					set[j] = addr.InstAddr(base, target(i))
				}
				targets[addr.InstAddr(base, i)] = set
			case 4:
				code[i] = isa.Inst{Kind: isa.Ret}
			case 5:
				code[i] = isa.Inst{Kind: isa.Load, DataStream: k >> 3}
			default:
				code[i] = isa.Inst{Kind: isa.IntALU}
			}
		}
		img := program.NewImage("fuzz", base, geom, code, targets)
		img.Entry = addr.InstAddr(base, rng.Intn(n))
		orig := slices.Clone(code)

		for _, stubs := range []bool{false, true} {
			out, amap, st, err := CompileWithMap(img, Options{InsertBoundaryStubs: stubs})
			if err != nil {
				t.Fatalf("stubs=%v: %v", stubs, err)
			}
			if err := out.Validate(); err != nil {
				t.Fatalf("stubs=%v: %v", stubs, err)
			}
			if !slices.Equal(img.Code, orig) {
				t.Fatalf("stubs=%v: compile mutated the input image", stubs)
			}

			// Naive relocation: old slot i lands at ref[i].
			ref := make([]int, n)
			next := 0
			for i := range ref {
				if stubs && uint64(addr.InstAddr(base, next))%page == page-addr.InstBytes {
					next++
				}
				ref[i] = next
				next++
			}
			if out.Len() != next {
				t.Fatalf("stubs=%v: compiled %d slots, want %d", stubs, out.Len(), next)
			}
			newAddr := func(old addr.VAddr) addr.VAddr {
				return addr.InstAddr(base, ref[addr.InstIndex(base, old)])
			}
			if out.Entry != newAddr(img.Entry) {
				t.Fatalf("stubs=%v: entry %#x, want %#x", stubs, uint64(out.Entry), uint64(newAddr(img.Entry)))
			}
			for i := range code {
				old, pc := addr.InstAddr(base, i), addr.InstAddr(base, ref[i])
				if got := amap.Map(old); got != pc {
					t.Fatalf("stubs=%v: Map(%#x) = %#x, want %#x", stubs, uint64(old), uint64(got), uint64(pc))
				}
				in, was := &out.Code[ref[i]], &code[i]
				if in.Kind != was.Kind || in.BoundaryStub {
					t.Fatalf("stubs=%v: slot %#x is %v (stub=%v), want %v", stubs, uint64(pc), in.Kind, in.BoundaryStub, was.Kind)
				}
				if was.Kind.IsDirect() && in.Target != newAddr(was.Target) {
					t.Fatalf("stubs=%v: %v at %#x targets %#x, want %#x",
						stubs, in.Kind, uint64(pc), uint64(in.Target), uint64(newAddr(was.Target)))
				}
				var want []addr.VAddr
				for _, tgt := range img.TargetSet(old) {
					want = append(want, newAddr(tgt))
				}
				if got := out.TargetSet(pc); !slices.Equal(got, want) {
					t.Fatalf("stubs=%v: ijmp at %#x has set %#x, want %#x", stubs, uint64(pc), got, want)
				}
			}

			nStubs, inPage := 0, 0
			for j := range out.Code {
				in := &out.Code[j]
				pc := addr.InstAddr(base, j)
				if in.BoundaryStub {
					nStubs++
					if !stubs || in.Kind != isa.Jump || uint64(pc)%page != page-addr.InstBytes || in.Target != pc+addr.InstBytes {
						t.Fatalf("stubs=%v: bad stub at %#x: %+v", stubs, uint64(pc), *in)
					}
				}
				want := in.Kind.IsDirect() && !in.BoundaryStub && uint64(pc)/page == uint64(in.Target)/page
				if in.InPage != want {
					t.Fatalf("stubs=%v: %v at %#x -> %#x: InPage = %v, want %v",
						stubs, in.Kind, uint64(pc), uint64(in.Target), in.InPage, want)
				}
				if want {
					inPage++
				}
			}
			if nStubs != next-n || st.Stubs != nStubs || st.InPage != inPage {
				t.Fatalf("stubs=%v: %d stubs (stats %d) for %d inserted slots, %d in-page (stats %d)",
					stubs, nStubs, st.Stubs, next-n, inPage, st.InPage)
			}
		}
	})
}
