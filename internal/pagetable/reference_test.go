package pagetable

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"domainvirt/internal/bincodec"
	"domainvirt/internal/memlayout"
)

// checker drives a Table and a reference map through the same operations
// and fails at the first disagreement. The map holds every stored PTE,
// present or not, by page number.
type checker struct {
	tb   testing.TB
	pt   *Table
	ref  map[uint64]PTE
	step int
}

func newChecker(tb testing.TB) *checker {
	return &checker{tb: tb, pt: New(), ref: make(map[uint64]PTE)}
}

func pageVA(vpn uint64) memlayout.VA { return memlayout.VA(vpn << memlayout.PageShift) }

func (c *checker) fatalf(format string, args ...any) {
	c.tb.Helper()
	c.tb.Fatalf("step %d: "+format, append([]any{c.step}, args...)...)
}

func (c *checker) mapPage(vpn, pfn uint64, writable bool) {
	c.step++
	c.pt.Map(pageVA(vpn), memlayout.PA(pfn<<memlayout.PageShift), writable)
	c.ref[vpn] = PTE{PFN: pfn, Present: true, Writable: writable}
}

func (c *checker) unmap(vpn uint64) {
	c.step++
	got, want := c.pt.Unmap(pageVA(vpn)), c.ref[vpn].Present
	if got != want {
		c.fatalf("Unmap(%#x) = %v, want %v", pageVA(vpn), got, want)
	}
	if want {
		delete(c.ref, vpn)
	}
}

func (c *checker) lookup(vpn uint64) {
	c.step++
	pte, ok := c.pt.Lookup(pageVA(vpn))
	if want := c.ref[vpn]; pte != want || ok != want.Present {
		c.fatalf("Lookup(%#x) = (%+v, %v), want (%+v, %v)", pageVA(vpn), pte, ok, want, want.Present)
	}
}

// rewrite applies fn to the table over r, and edit to every present
// reference PTE in r, and checks the count of PTEs fn reports.
func (c *checker) rewrite(name string, r memlayout.Region, fn func(*Table) int, edit func(*PTE)) {
	c.step++
	want := 0
	for vpn, pte := range c.ref {
		if pte.Present && r.Contains(pageVA(vpn)) {
			edit(&pte)
			c.ref[vpn] = pte
			want++
		}
	}
	if n := fn(c.pt); n != want {
		c.fatalf("%s(%v) = %d, want %d", name, r, n, want)
	}
}

func (c *checker) setKey(r memlayout.Region, key uint8) {
	c.rewrite("SetKey", r, func(t *Table) int { return t.SetKey(r, key) }, func(p *PTE) { p.PKey = key })
}

func (c *checker) setWritable(r memlayout.Region, w bool) {
	c.rewrite("SetWritable", r, func(t *Table) int { return t.SetWritable(r, w) }, func(p *PTE) { p.Writable = w })
}

// fork carries on with the table's decoded copy. The copy maps vpn, and
// its source, checked over r1, must not see that; the copy is checked
// over r2.
func (c *checker) fork(vpn uint64, r1, r2 memlayout.Region) {
	c.step++
	src := c.pt
	c.pt = c.decode(src.AppendTo(nil))
	c.pt.Map(pageVA(vpn), 0, false)
	c.check("source of a decoded copy", src, r1)
	c.ref[vpn] = PTE{Present: true}
	c.check("decoded copy", c.pt, r2)
}

// roundTrip carries on with the table's AppendTo/DecodeFrom copy.
func (c *checker) roundTrip(r memlayout.Region) {
	c.step++
	c.pt = c.decode(c.pt.AppendTo(nil))
	c.check("decoded copy", c.pt, r)
}

// scramble carries on with a table decoded from the table's own entries,
// shuffled and mixed with entries AppendTo never writes in that place: a
// repeat of a page with another frame, a zero entry that clears a page and
// a non-present entry that keeps a key and a writable bit. The reference
// applies them in order, the last entry of a page winning.
func (c *checker) scramble(rng *rand.Rand, r memlayout.Region) {
	c.step++
	type ent struct {
		vpn uint64
		pte PTE
	}
	var ents []ent
	for vpn, pte := range c.ref {
		ents = append(ents, ent{vpn, pte})
	}
	// Map order is random: sort, so that the seeded shuffle alone orders them.
	slices.SortFunc(ents, func(a, b ent) int { return cmp.Compare(a.vpn, b.vpn) })
	if len(ents) > 0 {
		some := func() uint64 { return ents[rng.Intn(len(ents))].vpn }
		ents = append(ents,
			ent{some(), PTE{PFN: uint64(rng.Intn(1 << 20)), Present: true}},
			ent{some(), PTE{}},
			ent{some() ^ 1, PTE{PFN: 7, Writable: true, PKey: uint8(rng.Intn(16))}})
	}
	rng.Shuffle(len(ents), func(i, j int) { ents[i], ents[j] = ents[j], ents[i] })
	b := bincodec.U32(nil, uint32(len(ents)))
	clear(c.ref)
	for _, e := range ents {
		b = appendEntry(b, e.vpn, e.pte)
		if e.pte == (PTE{}) {
			delete(c.ref, e.vpn)
		} else {
			c.ref[e.vpn] = e.pte
		}
	}
	c.pt = c.decode(b)
	c.check("decoded scramble", c.pt, r)
}

func (c *checker) decode(b []byte) *Table {
	c.tb.Helper()
	dec := &Table{}
	if err := dec.DecodeFrom(bincodec.NewReader(b)); err != nil {
		c.fatalf("DecodeFrom: %v", err)
	}
	return dec
}

// appendEntry appends one entry in AppendTo's layout.
func appendEntry(b []byte, vpn uint64, pte PTE) []byte {
	b = bincodec.U64(b, uint64(pageVA(vpn)))
	b = bincodec.U64(b, pte.PFN)
	var flags uint8
	if pte.Present {
		flags |= 1
	}
	if pte.Writable {
		flags |= 2
	}
	return bincodec.U8(bincodec.U8(b, flags), pte.PKey)
}

// check compares tab with the reference: ForEachPopulated must visit
// exactly the reference's present pages in r, in ascending VA order, with
// their PTEs; PopulatedPages and Populated must count them; and AppendTo
// must write the reference's stored PTEs in ascending page order.
func (c *checker) check(name string, tab *Table, r memlayout.Region) {
	c.tb.Helper()
	var want, stored []uint64
	present := 0
	for vpn, pte := range c.ref {
		stored = append(stored, vpn)
		if pte.Present {
			present++
			if r.Contains(pageVA(vpn)) {
				want = append(want, vpn)
			}
		}
	}
	slices.Sort(want)
	slices.Sort(stored)
	var got []uint64
	tab.ForEachPopulated(r, func(va memlayout.VA, pte *PTE) {
		vpn := memlayout.PageNum(va)
		if w := c.ref[vpn]; *pte != w {
			c.fatalf("%s visits %#x as %+v, want %+v", name, va, *pte, w)
		}
		got = append(got, vpn)
	})
	if !slices.Equal(got, want) {
		c.fatalf("%s ForEachPopulated(%v) visits %d pages %x, want %d %x",
			name, r, len(got), got, len(want), want)
	}
	if n := tab.PopulatedPages(r); n != len(want) {
		c.fatalf("%s PopulatedPages(%v) = %d, want %d", name, r, n, len(want))
	}
	if tab.Populated() != uint64(present) {
		c.fatalf("%s Populated = %d, want %d", name, tab.Populated(), present)
	}
	enc := bincodec.U32(nil, uint32(len(stored)))
	for _, vpn := range stored {
		enc = appendEntry(enc, vpn, c.ref[vpn])
	}
	if got := tab.AppendTo(nil); !bytes.Equal(got, enc) {
		c.fatalf("%s AppendTo writes %d bytes unlike the reference's %d", name, len(got), len(enc))
	}
}

// FuzzTableOps decodes a sequence of page-table operations from the fuzz
// input and runs it through the checker, which compares the table with a
// map after every operation. Pages fall in four adjacent leaves under
// each of 32 upper-level paths, so operations meet in leaves and ranges
// cross leaf and directory boundaries.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 9, 0, 0, 2, 3, 1, 0, 0, 9, 1, 2, 3, 0xff, 0xff, 0xff, 5})
	f.Add([]byte{0, 0x02, 0x00, 1, 0, 0x01, 0xff, 2, 0, 0x03, 0xff, 3, 6, 7, 3, 0, 0, 0x04, 0x00, 1, 4, 4, 0, 0, 0x01, 0x00, 2, 5, 0x01, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every operation is checked against the whole reference, so cap
		// the operations near 60 to keep each run short.
		data = data[:min(len(data), 256)]
		c := newChecker(t)
		next := func() uint64 {
			if len(data) == 0 {
				return 0
			}
			v := data[0]
			data = data[1:]
			return uint64(v)
		}
		page := func() uint64 {
			x := next()<<8 | next()
			return x&0x7ff | (x>>11&3)<<18 | (x>>13)<<27
		}
		region := func() memlayout.Region {
			a, b, tweak := page(), page(), next()
			if tweak >= 0xf0 {
				return memlayout.Region{Size: 1 << 48} // the whole radix
			}
			if a > b {
				a, b = b, a
			}
			base := pageVA(a) + memlayout.VA(tweak&3)*memlayout.PageSize/2
			end := pageVA(b) + memlayout.VA(tweak>>2&3)*memlayout.PageSize/2
			if end < base {
				end = base
			}
			return memlayout.Region{Base: base, Size: uint64(end - base)}
		}
		for len(data) > 0 {
			switch next() % 8 {
			case 0:
				p := page()
				c.mapPage(p, next()+1, next()&1 != 0)
			case 1:
				c.unmap(page())
			case 2:
				c.lookup(page())
			case 3:
				c.setKey(region(), uint8(next()%16))
			case 4:
				c.setWritable(region(), next()&1 != 0)
			case 5:
				c.fork(page(), region(), region())
			case 6:
				c.roundTrip(region())
			case 7:
				c.scramble(rand.New(rand.NewSource(int64(next()))), region())
			}
			c.check("table", c.pt, memlayout.Region{Size: 1 << 48})
		}
	})
}
