package pagetable

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"domainvirt/internal/bincodec"
	"domainvirt/internal/memlayout"
)

// entrySize is the encoded size of one PTE: page VA, PFN, flags, key.
const entrySize = 8 + 8 + 1 + 1

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
		k := 0 // the stored PTEs lie in ptes in the stored bitmap's order
		for w, s := range l.stored {
			for ; s != 0; s &= s - 1 {
				pte := &l.ptes[k]
				k++
				b = bincodec.U64(b, (base+uint64(w*64+bits.TrailingZeros64(s)))<<memlayout.PageShift)
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
		}
	})
	binary.LittleEndian.PutUint32(b[countAt:], n)
	return b
}

// DecodeFrom reads a table written by AppendTo into t, rebuilding the
// leaves and their bitmaps. AppendTo writes the entries of one leaf as
// one run, so a pass over the entries counts the runs, which sizes the
// slab of leaves, and the entries, which size the slab of PTEs; each run
// then takes its leaf's storage. Entries out of that order still decode,
// at the cost of allocations of their own.
func (t *Table) DecodeFrom(r *bincodec.Reader) error {
	*t = Table{root: new(pml4)}
	raw := r.Take(r.Count(entrySize) * entrySize)
	if err := r.Err(); err != nil {
		return fmt.Errorf("pagetable: %w", err)
	}
	runs := 0
	for e := 0; e < len(raw); e += entrySize {
		if e == 0 || leafNum(raw[e:]) != leafNum(raw[e-entrySize:]) {
			runs++
		}
	}
	s := newSlab(runs, len(raw)/entrySize)
	for len(raw) > 0 {
		n := entrySize
		for n < len(raw) && leafNum(raw[n:]) == leafNum(raw) {
			n += entrySize
		}
		va, _ := entry(raw)
		l := t.leafFor(va, true, &s)
		if len(l.ptes) == 0 {
			l.ptes = s.take(n / entrySize)[:0]
		}
		for ; n > 0; n -= entrySize {
			va, pte := entry(raw)
			t.set(l, memlayout.Index(va, 0), pte)
			raw = raw[entrySize:]
		}
	}
	return nil
}

// entry decodes the encoded PTE at the start of e and its page VA.
func entry(e []byte) (memlayout.VA, PTE) {
	return memlayout.VA(binary.LittleEndian.Uint64(e)), PTE{
		PFN:      binary.LittleEndian.Uint64(e[8:]),
		Present:  e[16]&1 != 0,
		Writable: e[16]&2 != 0,
		PKey:     e[17],
	}
}

// leafNum returns the number of the leaf that maps the encoded PTE at the
// start of e: the radix index bits of its VA above the leaf level.
func leafNum(e []byte) uint64 {
	return binary.LittleEndian.Uint64(e) >> memlayout.LevelShift(1) & (maxPage >> memlayout.RadixBits)
}
