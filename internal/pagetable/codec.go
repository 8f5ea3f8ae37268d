package pagetable

import (
	"encoding/binary"
	"fmt"

	"domainvirt/internal/bincodec"
	"domainvirt/internal/memlayout"
)

// AppendTo appends the deterministic binary form of the table: every
// non-zero leaf PTE as (page VA, PFN, flags), enumerated by an in-order
// radix walk so the entries appear in ascending VA order regardless of
// the insertion history. Non-present PTEs that still carry a key or
// writable bit are included so libmpk's pkey state survives a round trip.
func (t *Table) AppendTo(b []byte) []byte {
	countAt := len(b)
	b = bincodec.U32(b, 0) // entry count, patched below
	n := uint32(0)
	t.forEachLeaf(0, maxPage, func(base uint64, l *leaf) {
		for i := range l.ptes {
			pte := &l.ptes[i]
			if *pte == (PTE{}) {
				continue
			}
			b = bincodec.U64(b, (base+uint64(i))<<memlayout.PageShift)
			b = bincodec.U64(b, pte.PFN)
			var flags uint8
			if pte.Present {
				flags |= 1
			}
			if pte.Writable {
				flags |= 2
			}
			b = bincodec.U8(b, flags)
			b = bincodec.U8(b, pte.PKey)
			n++
		}
	})
	binary.LittleEndian.PutUint32(b[countAt:], n)
	return b
}

// DecodeFrom reads a table written by AppendTo into t, rebuilding the
// leaves and their presence bitmaps.
func (t *Table) DecodeFrom(r *bincodec.Reader) error {
	*t = Table{root: new(pml4)}
	n := r.Count(8 + 8 + 1 + 1)
	for i := 0; i < n; i++ {
		va := memlayout.VA(r.U64())
		pfn := r.U64()
		flags := r.U8()
		pkey := r.U8()
		if r.Err() != nil {
			break
		}
		pte := PTE{
			PFN:      pfn,
			Present:  flags&1 != 0,
			Writable: flags&2 != 0,
			PKey:     pkey,
		}
		was := t.leafFor(va, true).set(memlayout.Index(va, 0), pte)
		switch {
		case pte.Present && !was:
			t.populated++
		case was && !pte.Present:
			t.populated--
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("pagetable: %w", err)
	}
	return nil
}
