// Package vm models the virtual-memory substrate: a per-address-space page
// table with a scattering frame allocator, and the small OS contract the
// paper's §3.2 requires — the page whose translation lives in the CFR is
// pinned, and remapping or evicting a page invalidates both the TLBs and the
// CFR through registered hooks.
package vm

import (
	"fmt"
	"unsafe"

	"itlbcfr/internal/addr"
)

// AddressSpace maps virtual page numbers to physical frame numbers.
//
// Frames are assigned on first touch through a multiplicative hash so that
// PFN bits never coincide with VPN bits — any simulator component that
// accidentally uses a virtual page number where a physical frame is required
// will immediately disagree with the page table and fail tests.
type AddressSpace struct {
	geom  addr.Geometry
	pages map[uint64]uint64
	asid  uint64
	salt  uint64
	next  uint64

	// pinned names the pinned page (see PinWith); nil pins nothing.
	pinned func(vpn uint64) bool

	// OnInvalidate hooks are called when a page's translation is revoked
	// (remap/unmap); internal/core registers the CFR here and the TLBs are
	// invalidated by the owner of this address space.
	onInvalidate []func(vpn uint64)

	stats Stats
}

// Stats counts address-space activity.
type Stats struct {
	Walks   uint64
	Maps    uint64
	Remaps  uint64
	Unmaps  uint64
	Denied  uint64 // remaps refused because the page was pinned
	Invalid uint64 // invalidation broadcasts delivered
}

// New creates an address space with the given geometry and ASID.
// The ASID perturbs frame assignment so distinct spaces never share frames.
func New(geom addr.Geometry, asid uint64) *AddressSpace {
	return &AddressSpace{
		geom:  geom,
		pages: make(map[uint64]uint64),
		asid:  asid,
		salt:  asid*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D,
	}
}

// Geometry returns the page geometry.
func (as *AddressSpace) Geometry() addr.Geometry { return as.geom }

// ASID returns the address-space identifier.
func (as *AddressSpace) ASID() uint64 { return as.asid }

// PageColors is the page-coloring modulus: the allocator preserves the low
// log2(PageColors) frame bits so physically-indexed caches see the same
// index bits a virtually-indexed cache would — standard OS page coloring,
// which the paper's PI-PT comparison implicitly assumes (otherwise PI-PT
// would suffer arbitrary extra conflict misses on top of its serialization
// penalty).
const PageColors = 16

// frameFor deterministically scatters a fresh frame for vpn, preserving the
// page color.
func (as *AddressSpace) frameFor(n, vpn uint64) uint64 {
	x := (n + 1) * 0xBF58476D1CE4E5B9
	x ^= as.salt
	x ^= x >> 29
	// Keep frames within a bounded physical space, distinct from the VPN
	// ranges our code images use (which start near 0), and colored.
	pfn := (x % (1 << 28)) | (1 << 28)
	return pfn&^uint64(PageColors-1) | vpn&uint64(PageColors-1)
}

// Walk returns the PFN for vpn, mapping the page on first touch. This is the
// page-table walker handed to tlb.TLB.Lookup.
func (as *AddressSpace) Walk(vpn uint64) uint64 {
	as.stats.Walks++
	if pfn, ok := as.pages[vpn]; ok {
		return pfn
	}
	pfn := as.frameFor(as.next, vpn)
	as.next++
	as.pages[vpn] = pfn
	as.stats.Maps++
	return pfn
}

// WalkN charges n consecutive walks of the same vpn — the wrong-path bulk
// fetch path, where the oracle scheme walks once per fetch. Statistics and
// first-touch mapping match n calls to Walk exactly.
func (as *AddressSpace) WalkN(vpn uint64, n uint64) uint64 {
	pfn := as.Walk(vpn)
	as.stats.Walks += n - 1
	return pfn
}

// Lookup returns the current mapping without allocating.
func (as *AddressSpace) Lookup(vpn uint64) (uint64, bool) {
	pfn, ok := as.pages[vpn]
	return pfn, ok
}

// Translate maps a full virtual address to a physical address, walking the
// page table directly (no TLB) — used by oracle and test code.
func (as *AddressSpace) Translate(va addr.VAddr) addr.PAddr {
	pfn := as.Walk(as.geom.VPN(va))
	return as.geom.Translate(pfn, va)
}

// PinWith makes pinned the test for which page is not evictable or
// remappable — the OS-side guarantee for the page held in the CFR (§3.2:
// "the current page ... is not evicted"). internal/core registers a test
// that reads the CFR itself, so the pinned page is the CFR's page by
// construction: it follows every refill, squash and restore without being
// written anywhere. A nil test pins nothing, which is how a caller that
// really must move the resident page revokes the pin.
func (as *AddressSpace) PinWith(pinned func(vpn uint64) bool) { as.pinned = pinned }

// Pinned reports whether vpn is pinned.
func (as *AddressSpace) Pinned(vpn uint64) bool { return as.pinned != nil && as.pinned(vpn) }

// OnInvalidate registers a hook called whenever a page's translation is
// revoked. The CFR registers here so that a remap of the resident page
// invalidates it, exactly as the iTLB entry would be invalidated.
func (as *AddressSpace) OnInvalidate(f func(vpn uint64)) {
	as.onInvalidate = append(as.onInvalidate, f)
}

func (as *AddressSpace) broadcast(vpn uint64) {
	as.stats.Invalid++
	for _, f := range as.onInvalidate {
		f(vpn)
	}
}

// Remap moves vpn to a fresh frame (page migration / swap-in at a new
// location). It fails if the page is pinned, modelling the OS refusing to
// move the CFR-resident page; callers that really must move it revoke the
// pin first (PinWith(nil)), which the paper permits provided the CFR is
// invalidated.
func (as *AddressSpace) Remap(vpn uint64) (uint64, error) {
	if as.Pinned(vpn) {
		as.stats.Denied++
		return 0, fmt.Errorf("vm: page %#x is pinned by the CFR", vpn)
	}
	if _, ok := as.pages[vpn]; !ok {
		return 0, fmt.Errorf("vm: page %#x not mapped", vpn)
	}
	pfn := as.frameFor(as.next, vpn)
	as.next++
	as.pages[vpn] = pfn
	as.stats.Remaps++
	as.broadcast(vpn)
	return pfn, nil
}

// Unmap removes the mapping entirely (page evicted to disk).
func (as *AddressSpace) Unmap(vpn uint64) error {
	if as.Pinned(vpn) {
		as.stats.Denied++
		return fmt.Errorf("vm: page %#x is pinned by the CFR", vpn)
	}
	if _, ok := as.pages[vpn]; !ok {
		return fmt.Errorf("vm: page %#x not mapped", vpn)
	}
	delete(as.pages, vpn)
	as.stats.Unmaps++
	as.broadcast(vpn)
	return nil
}

// State is a deep snapshot of an address space's page table, allocator
// cursor and statistics, taken with Snapshot and reinstated with Restore. It
// shares no memory with the space it came from. Invalidation hooks and the
// pin test are NOT part of the state: they belong to the components
// observing the space (the pinned page is whatever the restored CFR holds)
// and are re-registered when those components are rebuilt.
type State struct {
	pages map[uint64]uint64
	next  uint64
	stats Stats
}

// Snapshot captures the address space's full mapping state. The allocator
// cursor (next) matters for determinism: frames for pages mapped after a
// restore must match the frames the original space would have assigned.
func (as *AddressSpace) Snapshot() *State {
	s := &State{
		pages: make(map[uint64]uint64, len(as.pages)),
		next:  as.next,
		stats: as.stats,
	}
	for k, v := range as.pages {
		s.pages[k] = v
	}
	return s
}

// Restore overwrites the address space's mapping state from a snapshot taken
// on a space with the same geometry and ASID. The state is copied, never
// aliased, so one snapshot can seed many spaces concurrently.
func (as *AddressSpace) Restore(s *State) {
	as.pages = make(map[uint64]uint64, len(s.pages))
	for k, v := range s.pages {
		as.pages[k] = v
	}
	as.next = s.next
	as.stats = s.stats
}

// Bytes is the snapshot's approximate resident size: its fields plus the
// key/value payload of its maps (map bucket overhead is not counted).
func (s *State) Bytes() int {
	return int(unsafe.Sizeof(*s)) + 16*len(s.pages)
}

// Stats returns a copy of the counters.
func (as *AddressSpace) Stats() Stats { return as.stats }

// MappedPages returns how many pages are currently mapped.
func (as *AddressSpace) MappedPages() int { return len(as.pages) }
