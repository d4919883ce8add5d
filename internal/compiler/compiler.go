// Package compiler implements the static pass the paper's software schemes
// require (§3.3.2–§3.3.4):
//
//  1. BOUNDARY stub insertion: an unconditional branch is placed in the last
//     instruction slot of every code page, targeting the first instruction
//     of the next page, so sequential execution never silently crosses a
//     page boundary. Insertion shifts the layout, so the pass relocates the
//     whole image and rewrites every encoded target through the old→new
//     address map — exactly what a linker-stage implementation would do.
//  2. In-page marking: every direct ("analyzable") control transfer whose
//     target lies in the same virtual page as itself gets the SoLA bit.
//  3. Static branch statistics: the left half of the paper's Table 4.
//
// The input image is never mutated; Compile returns a new image.
package compiler

import (
	"fmt"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/isa"
	"itlbcfr/internal/program"
)

// Options selects which transformations run.
type Options struct {
	// InsertBoundaryStubs enables the §3.3.2 page-end stub branches
	// (needed by SoCA, SoLA and IA; Base/OPT/HoA run the original layout).
	InsertBoundaryStubs bool
}

// StaticStats is the compile-time half of the paper's Table 4. Stub branches
// are compiler artifacts and are excluded, matching the paper's "obtained
// from the source codes".
type StaticStats struct {
	TotalSites   int // static CTI sites
	Analyzable   int // direct CTIs (target known at compile time)
	CrossingPage int // analyzable sites whose target is on another page
	InPage       int // analyzable sites whose target stays in the page
	Stubs        int // BOUNDARY stubs inserted (0 without the option)
}

// AnalyzableFrac returns Analyzable/TotalSites.
func (s StaticStats) AnalyzableFrac() float64 {
	if s.TotalSites == 0 {
		return 0
	}
	return float64(s.Analyzable) / float64(s.TotalSites)
}

// InPageFrac returns InPage/Analyzable.
func (s StaticStats) InPageFrac() float64 {
	if s.Analyzable == 0 {
		return 0
	}
	return float64(s.InPage) / float64(s.Analyzable)
}

// AddrMap translates pre-relocation instruction addresses into the
// compiled image's address space. Stub insertion shifts every instruction
// after the first stub, so any external record of old addresses — a fetch
// trace, most importantly — must be mapped before it can drive the
// compiled image.
type AddrMap struct {
	base addr.VAddr
	// oldToNew holds compiled slot indices. int32 halves the map a trace
	// replay keeps for its whole run; a trace image spans at most 4 MiB
	// (1M slots), and no image comes near 2^31 slots.
	oldToNew []int32
}

// Map returns the compiled address of the instruction that sat at old in
// the input image. It panics if old is outside the input image, exactly as
// indexing the input image would.
func (m *AddrMap) Map(old addr.VAddr) addr.VAddr {
	return addr.InstAddr(m.base, int(m.oldToNew[addr.InstIndex(m.base, old)]))
}

// Compile runs the pass and returns the transformed image plus statistics.
func Compile(img *program.Image, opt Options) (*program.Image, StaticStats, error) {
	out, _, stats, err := CompileWithMap(img, opt)
	return out, stats, err
}

// CompileWithMap is Compile, additionally returning the old→new address map
// the relocation used to rewrite targets.
func CompileWithMap(img *program.Image, opt Options) (*program.Image, *AddrMap, StaticStats, error) {
	out, amap := relocate(img, opt.InsertBoundaryStubs)
	stats := markInPage(out)
	if err := out.Validate(); err != nil {
		return nil, nil, StaticStats{}, fmt.Errorf("compiler: produced invalid image: %w", err)
	}
	return out, amap, stats, nil
}

// relocate copies the image, optionally inserting a stub in the last slot of
// each page and rewriting all targets, indirect target sets included,
// through the old→new map.
func relocate(img *program.Image, stubs bool) (*program.Image, *AddrMap) {
	geom := img.Geom
	oldCode := img.Code

	newCode := make([]isa.Inst, 0, len(oldCode)+len(oldCode)/1024+8)
	oldToNew := make([]int32, len(oldCode))

	for i := range oldCode {
		if stubs {
			pos := addr.InstAddr(img.Base, len(newCode))
			if geom.IsLastInstInPage(pos) {
				// The stub's target is the next sequential instruction, which
				// is exactly the first slot of the next page.
				newCode = append(newCode, isa.Inst{
					Kind:         isa.Jump,
					Target:       pos + addr.InstBytes,
					BoundaryStub: true,
				})
			}
		}
		oldToNew[i] = int32(len(newCode))
		newCode = append(newCode, oldCode[i])
	}
	amap := &AddrMap{base: img.Base, oldToNew: oldToNew}

	for i := range newCode {
		in := &newCode[i]
		if in.BoundaryStub {
			continue // stub targets are already in the new address space
		}
		if in.Kind.IsDirect() {
			in.Target = amap.Map(in.Target)
		}
	}

	targets := make(map[addr.VAddr][]addr.VAddr)
	for i := range oldCode {
		if oldCode[i].Kind != isa.IndJump {
			continue
		}
		pc := addr.InstAddr(img.Base, i)
		set := img.TargetSet(pc)
		ts := make([]addr.VAddr, len(set))
		for k, t := range set {
			ts[k] = amap.Map(t)
		}
		targets[amap.Map(pc)] = ts
	}

	out := program.NewImage(img.Name, img.Base, geom, newCode, targets)
	out.Entry = amap.Map(img.Entry)
	return out, amap
}

// markInPage sets the SoLA bit on same-page direct CTIs and gathers the
// static statistics.
func markInPage(img *program.Image) StaticStats {
	var st StaticStats
	geom := img.Geom
	for i := range img.Code {
		in := &img.Code[i]
		if !in.Kind.IsCTI() {
			continue
		}
		if in.BoundaryStub {
			st.Stubs++
			in.InPage = false
			continue
		}
		st.TotalSites++
		if !in.Kind.IsDirect() {
			continue
		}
		st.Analyzable++
		pc := addr.InstAddr(img.Base, i)
		if geom.SamePage(pc, in.Target) {
			in.InPage = true
			st.InPage++
		} else {
			in.InPage = false
			st.CrossingPage++
		}
	}
	return st
}
