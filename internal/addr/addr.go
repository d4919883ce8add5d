// Package addr defines virtual and physical address types and the page
// arithmetic used throughout the simulator.
//
// Addresses are 64-bit for headroom but the synthetic machine is a 32-bit
// design (the paper models an Alpha-class machine with 4KB pages).
// Page size is configurable per Geometry so the page-size sensitivity
// experiments (§4.4 of the paper) can sweep it.
package addr

import "fmt"

// VAddr is a virtual address.
type VAddr uint64

// PAddr is a physical address.
type PAddr uint64

// InstBytes is the fixed instruction width of the synthetic ISA.
// Instructions are aligned so a single instruction never crosses a page
// boundary (an assumption the paper makes explicitly in §3.3.2).
const InstBytes = 1 << InstShift

// InstShift is log2(InstBytes).
const InstShift = 2

// Geometry captures the page geometry of the machine.
type Geometry struct {
	// PageBits is log2(page size in bytes). 12 for the default 4KB pages.
	PageBits uint
}

// DefaultGeometry is the paper's default configuration: 4KB pages.
var DefaultGeometry = Geometry{PageBits: 12}

// NewGeometry returns a Geometry for the given page size in bytes,
// which must be a power of two and at least 256 bytes.
func NewGeometry(pageBytes uint64) (Geometry, error) {
	if pageBytes < 256 || pageBytes&(pageBytes-1) != 0 {
		return Geometry{}, fmt.Errorf("addr: page size %d is not a power of two >= 256", pageBytes)
	}
	bits := uint(0)
	for s := pageBytes; s > 1; s >>= 1 {
		bits++
	}
	return Geometry{PageBits: bits}, nil
}

// PageBytes returns the page size in bytes.
func (g Geometry) PageBytes() uint64 { return 1 << g.PageBits }

// PageMask returns the mask that isolates the offset within a page.
func (g Geometry) PageMask() uint64 { return g.PageBytes() - 1 }

// VPN returns the virtual page number of va.
func (g Geometry) VPN(va VAddr) uint64 { return uint64(va) >> g.PageBits }

// Offset returns the offset of va within its page.
func (g Geometry) Offset(va VAddr) uint64 { return uint64(va) & g.PageMask() }

// Translate combines a physical frame number with the page offset of va.
// This is exactly the CFR concatenation of Figure 1 in the paper.
func (g Geometry) Translate(pfn uint64, va VAddr) PAddr {
	return PAddr(pfn<<g.PageBits | g.Offset(va))
}

// PageBase returns the first address of the page containing va.
func (g Geometry) PageBase(va VAddr) VAddr {
	return VAddr(uint64(va) &^ g.PageMask())
}

// SamePage reports whether a and b lie in the same virtual page.
func (g Geometry) SamePage(a, b VAddr) bool { return g.VPN(a) == g.VPN(b) }

// IsLastInstInPage reports whether va is the last aligned instruction slot of
// its page; the instruction after it begins the next page (the BOUNDARY case
// of §3.3.2).
func (g Geometry) IsLastInstInPage(va VAddr) bool {
	return g.Offset(va) == g.PageBytes()-InstBytes
}

// InstIndex converts a virtual address to an instruction index relative to
// base. It panics if va is below base or unaligned, which would indicate a
// simulator bug rather than a recoverable condition.
func InstIndex(base, va VAddr) int {
	if va < base || (va-base)%InstBytes != 0 {
		panic(fmt.Sprintf("addr: bad instruction address %#x (base %#x)", uint64(va), uint64(base)))
	}
	return int((va - base) / InstBytes)
}

// InstAddr is the inverse of InstIndex.
func InstAddr(base VAddr, idx int) VAddr {
	return base + VAddr(idx*InstBytes)
}
