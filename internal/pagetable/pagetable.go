// Package pagetable implements a 4-level x86-64-style radix page table with
// 4-bit per-PTE protection keys (the PTE field Intel MPK repurposes). The
// simulator walks it on TLB misses; the libmpk baseline pays per-PTE costs
// when pkey_mprotect rewrites the key field of every populated PTE in a
// domain, so the table exposes populated-page enumeration.
//
// Interior nodes hold only child pointers; leaves hold the 512 PTEs plus a
// presence bitmap and no pointers, so the garbage collector never scans
// them and an enumeration of a sparse range costs its leaves plus its
// present PTEs, not every slot of the range.
package pagetable

import (
	"math/bits"

	"domainvirt/internal/memlayout"
)

// PTE is a leaf page-table entry.
type PTE struct {
	PFN      uint64 // physical frame number
	Present  bool
	Writable bool
	PKey     uint8 // 4-bit protection key; 0 is the null (domainless) key
}

// leaf is a last-level radix node: 512 PTEs and a bitmap whose bit i is
// set exactly when ptes[i].Present is.
type leaf struct {
	ptes    [memlayout.RadixFanout]PTE
	present [memlayout.RadixFanout / 64]uint64
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

// set stores pte in slot i, keeping the presence bitmap in step, and
// reports whether the slot held a present PTE before.
func (l *leaf) set(i int, pte PTE) (was bool) {
	was = l.ptes[i].Present
	l.ptes[i] = pte
	if pte.Present {
		l.present[i/64] |= 1 << (i % 64)
	} else {
		l.present[i/64] &^= 1 << (i % 64)
	}
	return was
}

// presentIn returns word w of the presence bitmap with the bits outside
// slots [first, last] cleared.
func (l *leaf) presentIn(w, first, last int) uint64 {
	b := l.present[w]
	if w == first/64 {
		b &= ^uint64(0) << (first % 64)
	}
	if w == last/64 {
		b &= ^uint64(0) >> (63 - last%64)
	}
	return b
}

// Table is a 4-level radix page table for one address space.
type Table struct {
	root      *pml4
	populated uint64 // number of present leaf PTEs
}

// New returns an empty page table.
func New() *Table {
	return &Table{root: new(pml4)}
}

// Populated returns the total number of present PTEs in the table.
func (t *Table) Populated() uint64 { return t.populated }

// Clone returns a deep copy of the table: the two share no nodes, so
// mutations of one are invisible to the other.
func (t *Table) Clone() *Table {
	return &Table{root: cloneDir(t.root, clonePUD), populated: t.populated}
}

// cloneDir deep-copies d, copying each child with cloneChild.
func cloneDir[C any](d *dir[C], cloneChild func(*C) *C) *dir[C] {
	c := new(dir[C])
	for i := range d.child {
		if ch := d.child[i]; ch != nil {
			c.child[i] = cloneChild(ch)
		}
	}
	return c
}

func clonePUD(d *pud) *pud { return cloneDir(d, clonePMD) }
func clonePMD(d *pmd) *pmd { return cloneDir(d, cloneLeaf) }
func cloneLeaf(l *leaf) *leaf {
	c := *l
	return &c
}

// leafFor returns the leaf covering va, creating intermediate nodes when
// create is true; otherwise it returns nil if the path is absent.
func (t *Table) leafFor(va memlayout.VA, create bool) *leaf {
	l3 := t.root.at(memlayout.Index(va, 3), create)
	if l3 == nil {
		return nil
	}
	l2 := l3.at(memlayout.Index(va, 2), create)
	if l2 == nil {
		return nil
	}
	return l2.at(memlayout.Index(va, 1), create)
}

// Map installs a translation for the 4 KB page containing va.
func (t *Table) Map(va memlayout.VA, pa memlayout.PA, writable bool) {
	pte := PTE{
		PFN:      uint64(pa) >> memlayout.PageShift,
		Present:  true,
		Writable: writable,
	}
	if !t.leafFor(va, true).set(memlayout.Index(va, 0), pte) {
		t.populated++
	}
}

// Unmap removes the translation for the page containing va, reporting
// whether a mapping was present.
func (t *Table) Unmap(va memlayout.VA) bool {
	l := t.leafFor(va, false)
	if l == nil {
		return false
	}
	idx := memlayout.Index(va, 0)
	if !l.ptes[idx].Present {
		return false
	}
	l.set(idx, PTE{})
	t.populated--
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
	pte = l.ptes[memlayout.Index(va, 0)]
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
		for w := first / 64; w <= last/64; w++ {
			for b := l.presentIn(w, first, last); b != 0; b &= b - 1 {
				i := w*64 + bits.TrailingZeros64(b)
				fn(memlayout.VA((base+uint64(i))<<memlayout.PageShift), &l.ptes[i])
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
