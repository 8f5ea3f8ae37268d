// Package pagetable implements a 4-level x86-64-style radix page table with
// 4-bit per-PTE protection keys (the PTE field Intel MPK repurposes). The
// simulator walks it on TLB misses; the libmpk baseline pays per-PTE costs
// when pkey_mprotect rewrites the key field of every populated PTE in a
// domain, so the table exposes populated-page enumeration.
//
// Interior nodes hold only child pointers. Leaves are sparse: a leaf keeps
// two 512-bit bitmaps, one of its stored slots and one of its present
// slots, and stores only its non-zero PTEs, in slot order, finding slot i
// at the rank of bit i in the stored bitmap. A leaf costs 168 bytes plus
// 16 per stored PTE, where all 512 slots would cost 8 KiB, and an
// enumeration of a sparse range costs its leaves plus its stored PTEs, not
// every slot of the range. DecodeFrom sizes a table's leaves and PTEs
// before it fills them, and takes each from one slab.
package pagetable

import (
	"math/bits"
	"slices"

	"domainvirt/internal/memlayout"
)

// PTE is a leaf page-table entry.
type PTE struct {
	PFN      uint64 // physical frame number
	Present  bool
	Writable bool
	PKey     uint8 // 4-bit protection key; 0 is the null (domainless) key
}

// words is the number of 64-bit words in one bitmap of a leaf.
const words = memlayout.RadixFanout / 64

// leaf is a last-level radix node. Slot i stores a PTE exactly when bit i
// of stored is set, and that PTE is ptes[rank(i)]. A stored PTE is
// non-zero but need not be present: a decoded table can carry a key or a
// writable bit in a non-present slot. present is a subset of stored.
type leaf struct {
	stored  [words]uint64
	present [words]uint64
	below   [words]int16 // below[w] counts the stored bits of words [0, w)
	ptes    []PTE        // the stored PTEs in slot order; no pointers
}

// dir is an interior radix node: 512 child pointers and nothing else.
type dir[C any] struct {
	child [memlayout.RadixFanout]*C
}

// The memlayout.NumLevels = 4 radix levels, one type each.
type (
	pmd  = dir[leaf] // level 1: a slot per 2 MiB
	pud  = dir[pmd]  // level 2: a slot per 1 GiB
	pml4 = dir[pud]  // level 3, the root: a slot per 512 GiB
)

// at returns child i, creating it first when it is absent and create is
// true; otherwise an absent child is nil.
func (d *dir[C]) at(i int, create bool) *C {
	c := d.child[i]
	if c == nil && create {
		c = new(C)
		d.child[i] = c
	}
	return c
}

// rank returns the index in ptes of slot i's PTE, or of the place it
// would take: the number of stored slots below i.
func (l *leaf) rank(i int) int {
	w := i / 64
	return int(l.below[w]) + bits.OnesCount64(l.stored[w]&(1<<(i%64)-1))
}

// get returns the PTE in slot i, the zero PTE when the slot stores none.
func (l *leaf) get(i int) PTE {
	if l.stored[i/64]&(1<<(i%64)) == 0 {
		return PTE{}
	}
	return l.ptes[l.rank(i)]
}

// set stores pte in slot i, inserting it into ptes when the slot turns
// non-zero and removing it when the slot turns zero, and reports whether
// the slot held a present PTE before.
func (l *leaf) set(i int, pte PTE) (was bool) {
	w, bit := i/64, uint64(1)<<(i%64)
	was = l.present[w]&bit != 0
	l.present[w] &^= bit
	if pte.Present {
		l.present[w] |= bit
	}
	k := l.rank(i)
	switch stored := l.stored[w]&bit != 0; {
	case stored && pte != PTE{}:
		l.ptes[k] = pte
	case stored:
		l.ptes = slices.Delete(l.ptes, k, k+1)
		l.stored[w] &^= bit
		l.count(w, -1)
	case pte != PTE{}:
		l.ptes = slices.Insert(l.ptes, k, pte)
		l.stored[w] |= bit
		l.count(w, 1)
	}
	return was
}

// count adds d to the prefix counts of the words above w, after a slot in
// word w turned stored (d = 1) or empty (d = -1).
func (l *leaf) count(w int, d int16) {
	for v := w + 1; v < words; v++ {
		l.below[v] += d
	}
}

// span returns the bits of bitmap word w that fall in slots [first, last].
func span(w, first, last int) uint64 {
	m := ^uint64(0)
	if w == first/64 {
		m <<= first % 64
	}
	if w == last/64 {
		m &= ^uint64(0) >> (63 - last%64)
	}
	return m
}

// slab hands out leaves and PTE storage carved from two bulk allocations,
// for a table whose size is known before it is filled.
type slab struct {
	leaves []leaf
	ptes   []PTE
}

func newSlab(leaves, ptes int) slab {
	return slab{make([]leaf, leaves), make([]PTE, ptes)}
}

// leaf returns a zero leaf, from the slab while it lasts. A nil slab
// allocates every leaf on its own.
func (s *slab) leaf() *leaf {
	if s == nil || len(s.leaves) == 0 {
		return new(leaf)
	}
	l := &s.leaves[0]
	s.leaves = s.leaves[1:]
	return l
}

// take returns storage for n PTEs. Its capacity ends where its length
// does, so a leaf that later outgrows it reallocates rather than writing
// into the storage of the leaf after it.
func (s *slab) take(n int) []PTE {
	p := s.ptes[:n:n]
	s.ptes = s.ptes[n:]
	return p
}

// Table is a 4-level radix page table for one address space.
type Table struct {
	root      *pml4
	populated uint64 // number of present leaf PTEs
	leaves    int    // number of leaves
	stored    int    // number of stored PTEs, across all leaves
}

// New returns an empty page table.
func New() *Table {
	return &Table{root: new(pml4)}
}

// Populated returns the total number of present PTEs in the table.
func (t *Table) Populated() uint64 { return t.populated }

// leafFor returns the leaf covering va. When create is true it first
// creates the absent nodes on the path, taking a new leaf from s;
// otherwise an absent path yields nil.
func (t *Table) leafFor(va memlayout.VA, create bool, s *slab) *leaf {
	l3 := t.root.at(memlayout.Index(va, 3), create)
	if l3 == nil {
		return nil
	}
	l2 := l3.at(memlayout.Index(va, 2), create)
	if l2 == nil {
		return nil
	}
	i := memlayout.Index(va, 1)
	if l2.child[i] == nil && create {
		l2.child[i] = s.leaf()
		t.leaves++
	}
	return l2.child[i]
}

// set stores pte in slot i of l, keeping the table's counts in step.
func (t *Table) set(l *leaf, i int, pte PTE) {
	n := len(l.ptes)
	was := l.set(i, pte)
	t.stored += len(l.ptes) - n
	switch {
	case pte.Present && !was:
		t.populated++
	case was && !pte.Present:
		t.populated--
	}
}

// Map installs a translation for the 4 KB page containing va.
func (t *Table) Map(va memlayout.VA, pa memlayout.PA, writable bool) {
	t.set(t.leafFor(va, true, nil), memlayout.Index(va, 0), PTE{
		PFN:      uint64(pa) >> memlayout.PageShift,
		Present:  true,
		Writable: writable,
	})
}

// Unmap removes the translation for the page containing va, reporting
// whether a mapping was present.
func (t *Table) Unmap(va memlayout.VA) bool {
	l := t.leafFor(va, false, nil)
	if l == nil {
		return false
	}
	idx := memlayout.Index(va, 0)
	if !l.get(idx).Present {
		return false
	}
	t.set(l, idx, PTE{})
	return true
}

// Walk translates va, returning the PTE and whether it is present. The
// returned depth is the number of radix levels touched (4 for a full walk),
// which the simulator uses for walk costing.
func (t *Table) Walk(va memlayout.VA) (pte PTE, depth int, ok bool) {
	l3 := t.root.child[memlayout.Index(va, 3)]
	if l3 == nil {
		return PTE{}, 1, false
	}
	l2 := l3.child[memlayout.Index(va, 2)]
	if l2 == nil {
		return PTE{}, 2, false
	}
	l := l2.child[memlayout.Index(va, 1)]
	if l == nil {
		return PTE{}, 3, false
	}
	pte = l.get(memlayout.Index(va, 0))
	return pte, memlayout.NumLevels, pte.Present
}

// Lookup is Walk without depth accounting.
func (t *Table) Lookup(va memlayout.VA) (PTE, bool) {
	pte, _, ok := t.Walk(va)
	return pte, ok
}

// SetWritable updates the writable bit of every populated PTE in region,
// returning the number of PTEs changed.
func (t *Table) SetWritable(r memlayout.Region, writable bool) int {
	n := 0
	t.ForEachPopulated(r, func(va memlayout.VA, pte *PTE) {
		if pte.Writable != writable {
			pte.Writable = writable
		}
		n++
	})
	return n
}

// SetKey writes the protection key into every populated PTE in region,
// returning the number of PTEs written. This is the cost driver of
// pkey_mprotect: work proportional to the populated pages of the domain.
func (t *Table) SetKey(r memlayout.Region, key uint8) int {
	n := 0
	t.ForEachPopulated(r, func(va memlayout.VA, pte *PTE) {
		pte.PKey = key
		n++
	})
	return n
}

// PopulatedPages counts present PTEs within region.
func (t *Table) PopulatedPages(r memlayout.Region) int {
	n := 0
	t.ForEachPopulated(r, func(memlayout.VA, *PTE) { n++ })
	return n
}

// ForEachPopulated invokes fn for every present PTE whose page lies within
// region, in ascending VA order, passing the page base VA and a mutable
// PTE pointer. fn may rewrite the PTE's key and writable bit but not its
// Present flag.
func (t *Table) ForEachPopulated(r memlayout.Region, fn func(memlayout.VA, *PTE)) {
	lo, hi, ok := pageSpan(r)
	if !ok {
		return
	}
	t.forEachLeaf(lo, hi, func(base uint64, l *leaf) {
		first, last := slots(0, base, lo, hi)
		k := l.rank(first) // counts along ptes beside the stored bits
		for w := first / 64; w <= last/64; w++ {
			for b := l.stored[w] & span(w, first, last); b != 0; b &= b - 1 {
				if l.present[w]&b&-b != 0 {
					i := w*64 + bits.TrailingZeros64(b)
					fn(memlayout.VA((base+uint64(i))<<memlayout.PageShift), &l.ptes[k])
				}
				k++
			}
		}
	})
}

// maxPage is the last page number the four radix levels index.
const maxPage = 1<<(memlayout.NumLevels*memlayout.RadixBits) - 1

// pageSpan returns the page numbers [lo, hi] of the pages whose base VA
// lies within r and the radix covers, and false when there are none.
func pageSpan(r memlayout.Region) (lo, hi uint64, ok bool) {
	end := r.End()
	if end <= r.Base { // empty, or wrapping past the top of the VA space
		return 0, 0, false
	}
	lo = memlayout.PageNum(r.Base)
	if memlayout.PageOffset(r.Base) != 0 {
		lo++
	}
	hi = min(memlayout.PageNum(end-1), maxPage)
	return lo, hi, lo <= hi
}

// slots returns the first and last slot of a node at radix level lvl,
// covering pages from base on, that overlap pages [lo, hi]; the node must
// overlap them.
func slots(lvl int, base, lo, hi uint64) (first, last int) {
	shift := uint(memlayout.RadixBits * lvl) // log2 of the pages per slot
	first, last = 0, memlayout.RadixFanout-1
	if lo > base {
		first = int((lo - base) >> shift)
	}
	if off := (hi - base) >> shift; off < memlayout.RadixFanout {
		last = int(off)
	}
	return first, last
}

// eachChild calls fn, in ascending slot order, with every present child
// of d whose slot overlaps pages [lo, hi], and the child's first page. d
// sits at radix level lvl and covers pages from base on.
func eachChild[C any](d *dir[C], lvl int, base, lo, hi uint64, fn func(base uint64, c *C)) {
	first, last := slots(lvl, base, lo, hi)
	for i := first; i <= last; i++ {
		if c := d.child[i]; c != nil {
			fn(base+uint64(i)<<(memlayout.RadixBits*lvl), c)
		}
	}
}

// forEachLeaf calls fn, in ascending VA order, with every leaf that maps
// any of pages [lo, hi], and the leaf's first page.
func (t *Table) forEachLeaf(lo, hi uint64, fn func(base uint64, l *leaf)) {
	eachChild(t.root, 3, 0, lo, hi, func(base uint64, d *pud) {
		eachChild(d, 2, base, lo, hi, func(base uint64, d *pmd) {
			eachChild(d, 1, base, lo, hi, fn)
		})
	})
}
