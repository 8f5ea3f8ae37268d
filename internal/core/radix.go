package core

import (
	"fmt"

	"domainvirt/internal/memlayout"
)

// DomainTable is the radix-tree VA→domain mapping underlying both the
// Domain Translation Table (DTT) of hardware MPK virtualization and the
// Domain Range Table (DRT) of hardware domain virtualization. Like the
// page table it is organized hierarchically and walked from the top level;
// an entry is either a directory entry (next-level bit 1) pointing to a
// child node or a PMO root entry (next-level bit 0) recording the domain
// that owns the slot's whole VA span.
//
// A PMO attaches at the radix level matching its size and may occupy
// several consecutive slots (e.g. an 8 MB PMO occupies four 2 MB slots),
// per the paper's aligned-region requirement.
type DomainTable struct {
	root    *dtNode
	regions map[DomainID]memlayout.Region
}

type dtNode struct {
	children [memlayout.RadixFanout]*dtNode
	domain   [memlayout.RadixFanout]DomainID // PMO root entries; 0 = none
}

// NewDomainTable returns an empty table.
func NewDomainTable() *DomainTable {
	return &DomainTable{
		root:    &dtNode{},
		regions: make(map[DomainID]memlayout.Region),
	}
}

// Insert registers domain d over region r. The region base must be
// aligned to the attach-level granularity and the slots must be free.
func (t *DomainTable) Insert(d DomainID, r memlayout.Region) error {
	if _, ok := t.regions[d]; ok {
		return fmt.Errorf("core: domain %d already attached", d)
	}
	if err := t.place(d, r); err != nil {
		return err
	}
	t.regions[d] = r
	return nil
}

// place writes d's entries for r into the radix tree.
func (t *DomainTable) place(d DomainID, r memlayout.Region) error {
	if d == NullDomain {
		return fmt.Errorf("core: cannot insert the null domain")
	}
	lvl, slots, _ := memlayout.AttachLevel(r.Size)
	gran := memlayout.LevelSize(lvl)
	if !memlayout.IsAligned(uint64(r.Base), gran) {
		return fmt.Errorf("core: region %s not aligned to level-%d granularity %#x", r, lvl, gran)
	}
	n := t.root
	for l := memlayout.NumLevels - 1; l > lvl; l-- {
		idx := memlayout.Index(r.Base, l)
		if n.domain[idx] != NullDomain {
			return fmt.Errorf("core: region %s overlaps domain %d", r, n.domain[idx])
		}
		child := n.children[idx]
		if child == nil {
			child = &dtNode{}
			n.children[idx] = child
		}
		n = child
	}
	i0 := memlayout.Index(r.Base, lvl)
	if i0+slots > memlayout.RadixFanout {
		return fmt.Errorf("core: region %s crosses a level-%d node boundary", r, lvl)
	}
	for i := i0; i < i0+slots; i++ {
		if n.domain[i] != NullDomain || n.children[i] != nil {
			return fmt.Errorf("core: region %s overlaps an existing mapping", r)
		}
	}
	for i := i0; i < i0+slots; i++ {
		n.domain[i] = d
	}
	return nil
}

// Remove deletes domain d's entries. It reports whether d was present.
func (t *DomainTable) Remove(d DomainID) bool {
	r, ok := t.regions[d]
	if !ok {
		return false
	}
	lvl, slots, _ := memlayout.AttachLevel(r.Size)
	n := t.root
	for l := memlayout.NumLevels - 1; l > lvl; l-- {
		n = n.children[memlayout.Index(r.Base, l)]
		if n == nil {
			delete(t.regions, d)
			return true
		}
	}
	i0 := memlayout.Index(r.Base, lvl)
	for i := i0; i < i0+slots && i < memlayout.RadixFanout; i++ {
		if n.domain[i] == d {
			n.domain[i] = NullDomain
		}
	}
	delete(t.regions, d)
	return true
}

// Lookup walks the table and returns the domain covering va (NullDomain
// if none) and the walk depth in levels, used for walk-latency modeling.
func (t *DomainTable) Lookup(va memlayout.VA) (DomainID, int) {
	n := t.root
	depth := 1
	for l := memlayout.NumLevels - 1; l >= 0; l-- {
		idx := memlayout.Index(va, l)
		if d := n.domain[idx]; d != NullDomain {
			return d, depth
		}
		if l == 0 {
			return NullDomain, depth
		}
		next := n.children[idx]
		if next == nil {
			return NullDomain, depth
		}
		n = next
		depth++
	}
	return NullDomain, depth
}

// Region returns the attached region of d.
func (t *DomainTable) Region(d DomainID) (memlayout.Region, bool) {
	r, ok := t.regions[d]
	return r, ok
}

// Len returns the number of attached domains.
func (t *DomainTable) Len() int { return len(t.regions) }

// ForEach calls fn for every attached (domain, region) pair.
func (t *DomainTable) ForEach(fn func(DomainID, memlayout.Region)) {
	for d, r := range t.regions {
		fn(d, r)
	}
}
