// Package memlayout defines the address types, page geometry, and radix
// indexing helpers shared by the page table, TLBs, and the domain tables
// (DTT/DRT). The layout mirrors x86-64 4-level paging: 4 KB base pages with
// 2 MB, 1 GB, and 512 GB aligned regions at the upper radix levels.
package memlayout

import "fmt"

// VA is a 64-bit virtual address.
type VA uint64

// PA is a 64-bit physical address.
type PA uint64

// Page geometry constants for x86-64 4-level paging.
const (
	PageShift = 12
	PageSize  = 1 << PageShift // 4 KB

	// RadixBits is the number of index bits consumed per radix level.
	RadixBits = 9
	// RadixFanout is the number of slots in one radix node.
	RadixFanout = 1 << RadixBits

	// NumLevels is the number of radix levels (PML4..PT).
	NumLevels = 4

	// LineSize is the cache-line size in bytes; accesses are split at
	// line boundaries (see SplitLine).
	LineSize = 64
)

// LevelShift returns the address shift covered by radix level lvl, where
// lvl 0 is the leaf (4 KB), lvl 1 is 2 MB, lvl 2 is 1 GB, lvl 3 is 512 GB.
func LevelShift(lvl int) uint {
	return uint(PageShift + RadixBits*lvl)
}

// LevelSize returns the bytes covered by one entry at radix level lvl.
func LevelSize(lvl int) uint64 {
	return 1 << LevelShift(lvl)
}

// Index returns the 9-bit radix index of va at level lvl.
func Index(va VA, lvl int) int {
	return int((uint64(va) >> LevelShift(lvl)) & (RadixFanout - 1))
}

// PageNum returns the virtual page number of va.
func PageNum(va VA) uint64 { return uint64(va) >> PageShift }

// PageBase returns the base address of the 4 KB page containing va.
func PageBase(va VA) VA { return va &^ (PageSize - 1) }

// PageOffset returns the offset of va within its 4 KB page.
func PageOffset(va VA) uint64 { return uint64(va) & (PageSize - 1) }

// Region is a contiguous virtual address range [Base, Base+Size).
// PMO regions are aligned to a radix level granularity as required by the
// paper: "A PMO can map only to an aligned and contiguous range of virtual
// address that corresponds to the granularity of the hierarchy level of the
// page table."
type Region struct {
	Base VA
	Size uint64
}

// End returns the first address past the region.
func (r Region) End() VA { return r.Base + VA(r.Size) }

// Contains reports whether va lies within the region.
func (r Region) Contains(va VA) bool {
	return va >= r.Base && va < r.End()
}

// Overlaps reports whether r and o share any address.
func (r Region) Overlaps(o Region) bool {
	return r.Base < o.End() && o.Base < r.End()
}

// Pages returns the number of 4 KB pages the region spans.
func (r Region) Pages() uint64 {
	return (r.Size + PageSize - 1) / PageSize
}

// String implements fmt.Stringer.
func (r Region) String() string {
	return fmt.Sprintf("[%#x,%#x)", uint64(r.Base), uint64(r.End()))
}

// AlignUp rounds v up to the next multiple of align (a power of two).
func AlignUp(v, align uint64) uint64 {
	return (v + align - 1) &^ (align - 1)
}

// IsAligned reports whether v is a multiple of align (a power of two).
func IsAligned(v, align uint64) bool { return v&(align-1) == 0 }

// AttachLevel returns the radix level whose granularity a PMO of the given
// byte size attaches at, together with the number of consecutive slots the
// PMO occupies at that level and the rounded VA footprint.
//
// Per the paper, the smallest PMO occupies a 4 KB VA region, the next a
// 2 MB region, then 1 GB, corresponding to page-table levels. Sizes between
// levels occupy multiple consecutive aligned slots of the highest level not
// exceeding the size (e.g. an 8 MB PMO occupies four 2 MB slots); the PMO
// need not use its whole VA range.
func AttachLevel(size uint64) (lvl int, slots int, footprint uint64) {
	if size == 0 {
		size = 1
	}
	lvl = 0
	for l := NumLevels - 1; l >= 1; l-- {
		if size >= LevelSize(l) {
			lvl = l
			break
		}
	}
	gran := LevelSize(lvl)
	footprint = AlignUp(size, gran)
	slots = int(footprint / gran)
	return lvl, slots, footprint
}

// SplitLine splits an access of the given size at va into cache-line-sized
// pieces and calls fn for each piece's starting address and length. Line
// size is 64 bytes.
func SplitLine(va VA, size uint32, fn func(VA, uint32)) {
	const line = LineSize
	for size > 0 {
		off := uint64(va) & (line - 1)
		chunk := uint32(line - off)
		if chunk > size {
			chunk = size
		}
		fn(va, chunk)
		va += VA(chunk)
		size -= chunk
	}
}
