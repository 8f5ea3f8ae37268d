package pagetable

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"domainvirt/internal/bincodec"
	"domainvirt/internal/memlayout"
)

func TestMapWalkRoundTrip(t *testing.T) {
	pt := New()
	va := memlayout.VA(0x7f1234567000)
	pt.Map(va, 0xABC000, true)
	pte, depth, ok := pt.Walk(va)
	if !ok {
		t.Fatal("mapped page not found")
	}
	if pte.PFN != 0xABC {
		t.Errorf("PFN = %#x, want 0xABC", pte.PFN)
	}
	if !pte.Writable {
		t.Error("writable bit lost")
	}
	if depth != memlayout.NumLevels {
		t.Errorf("walk depth = %d, want %d", depth, memlayout.NumLevels)
	}
	if _, _, ok := pt.Walk(va + memlayout.PageSize); ok {
		t.Error("adjacent unmapped page must miss")
	}
}

func TestMapAgainstReference(t *testing.T) {
	// A random sequence of Map, Unmap, Lookup, SetKey, Clone and an
	// AppendTo/DecodeFrom round trip must agree with a Go map, and
	// ForEachPopulated must visit exactly the map's pages in a region, in
	// ascending VA order, on the table, its clone and its decoded copy.
	rng := rand.New(rand.NewSource(7))
	pt := New()
	type refPTE struct {
		pfn uint64
		key uint8
	}
	ref := make(map[uint64]refPTE) // vpn -> PTE
	randVPN := func() uint64 {
		return uint64(rng.Intn(2048))*7919 + uint64(rng.Intn(64))<<30
	}
	randRegion := func() memlayout.Region {
		if rng.Intn(8) == 0 {
			return memlayout.Region{Size: 1 << 48} // the whole radix
		}
		a, b := memlayout.VA(randVPN()<<memlayout.PageShift), memlayout.VA(randVPN()<<memlayout.PageShift)
		if a > b {
			a, b = b, a
		}
		// Unaligned ends: a page is in the region when its base is.
		a += memlayout.VA(rng.Intn(2 * memlayout.PageSize))
		return memlayout.Region{Base: a, Size: uint64(b-a) + uint64(rng.Intn(2*memlayout.PageSize))}
	}
	check := func(step int, name string, tab *Table, r memlayout.Region) {
		var want []uint64
		for vpn := range ref {
			if r.Contains(memlayout.VA(vpn << memlayout.PageShift)) {
				want = append(want, vpn)
			}
		}
		slices.Sort(want)
		var got []uint64
		tab.ForEachPopulated(r, func(va memlayout.VA, pte *PTE) {
			vpn := memlayout.PageNum(va)
			if w := ref[vpn]; !pte.Present || pte.PFN != w.pfn || pte.PKey != w.key {
				t.Fatalf("step %d: %s visits %#x as %+v, want %+v", step, name, va, *pte, w)
			}
			got = append(got, vpn)
		})
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: %s ForEachPopulated(%v) visits %d pages %x, want %d %x",
				step, name, r, len(got), got, len(want), want)
		}
		if n := tab.PopulatedPages(r); n != len(want) {
			t.Fatalf("step %d: %s PopulatedPages(%v) = %d, want %d", step, name, r, n, len(want))
		}
		if tab.Populated() != uint64(len(ref)) {
			t.Fatalf("step %d: %s Populated = %d, want %d", step, name, tab.Populated(), len(ref))
		}
	}
	for i := 0; i < 5000; i++ {
		vpn := randVPN()
		va := memlayout.VA(vpn << memlayout.PageShift)
		switch op := rng.Intn(100); {
		case op < 40:
			pfn := uint64(rng.Int63n(1 << 30))
			pt.Map(va, memlayout.PA(pfn<<memlayout.PageShift), true)
			ref[vpn] = refPTE{pfn: pfn}
		case op < 60:
			got := pt.Unmap(va)
			_, want := ref[vpn]
			if got != want {
				t.Fatalf("Unmap(%#x) = %v, want %v", va, got, want)
			}
			delete(ref, vpn)
		case op < 80:
			pte, ok := pt.Lookup(va)
			w, want := ref[vpn]
			if ok != want || (ok && (pte.PFN != w.pfn || pte.PKey != w.key)) {
				t.Fatalf("Lookup(%#x) = (%+v,%v), want (%+v,%v)", va, pte, ok, w, want)
			}
		case op < 98:
			r := randRegion()
			key := uint8(rng.Intn(16))
			want := 0
			for v, w := range ref {
				if r.Contains(memlayout.VA(v << memlayout.PageShift)) {
					w.key = key
					ref[v] = w
					want++
				}
			}
			if n := pt.SetKey(r, key); n != want {
				t.Fatalf("SetKey(%v) = %d, want %d", r, n, want)
			}
		case op < 99:
			// Carry on with a clone: a mapping made in it must not
			// show in its source.
			clone := pt.Clone()
			clone.Map(va, 0, false)
			check(i, "source of a clone", pt, randRegion())
			ref[vpn] = refPTE{}
			check(i, "clone", clone, randRegion())
			pt = clone
		default:
			dec := &Table{}
			if err := dec.DecodeFrom(bincodec.NewReader(pt.AppendTo(nil))); err != nil {
				t.Fatal(err)
			}
			check(i, "decoded copy", dec, randRegion())
			pt = dec
		}
		if i%25 == 0 {
			check(i, "table", pt, randRegion())
		}
	}
}

func TestSetKeyCountsPopulatedOnly(t *testing.T) {
	pt := New()
	base := memlayout.VA(0x40000000)
	// Map every other page of a 64-page region.
	for i := 0; i < 64; i += 2 {
		pt.Map(base+memlayout.VA(i*memlayout.PageSize), memlayout.PA(i+1)<<memlayout.PageShift, true)
	}
	r := memlayout.Region{Base: base, Size: 64 * memlayout.PageSize}
	if n := pt.SetKey(r, 3); n != 32 {
		t.Errorf("SetKey touched %d PTEs, want 32 (populated only)", n)
	}
	if n := pt.PopulatedPages(r); n != 32 {
		t.Errorf("PopulatedPages = %d, want 32", n)
	}
	pte, _ := pt.Lookup(base)
	if pte.PKey != 3 {
		t.Errorf("PKey = %d, want 3", pte.PKey)
	}
	// A sub-range touches only its own pages.
	sub := memlayout.Region{Base: base, Size: 16 * memlayout.PageSize}
	if n := pt.SetKey(sub, 5); n != 8 {
		t.Errorf("sub-range SetKey = %d, want 8", n)
	}
	outside, _ := pt.Lookup(base + 32*memlayout.PageSize)
	if outside.PKey != 3 {
		t.Errorf("PTE outside sub-range changed to %d", outside.PKey)
	}
}

func TestSetWritable(t *testing.T) {
	pt := New()
	base := memlayout.VA(0x50000000)
	for i := 0; i < 8; i++ {
		pt.Map(base+memlayout.VA(i*memlayout.PageSize), memlayout.PA(i+1)<<memlayout.PageShift, true)
	}
	r := memlayout.Region{Base: base, Size: 8 * memlayout.PageSize}
	if n := pt.SetWritable(r, false); n != 8 {
		t.Errorf("SetWritable = %d, want 8", n)
	}
	pte, _ := pt.Lookup(base)
	if pte.Writable {
		t.Error("page still writable")
	}
}

func TestForEachPopulatedRangeExactness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pt := New()
		mapped := make(map[uint64]bool)
		base := uint64(0x100000000)
		for i := 0; i < 200; i++ {
			vpn := base>>memlayout.PageShift + uint64(rng.Intn(4096))
			pt.Map(memlayout.VA(vpn<<memlayout.PageShift), memlayout.PA(vpn<<memlayout.PageShift), true)
			mapped[vpn] = true
		}
		lo := base + uint64(rng.Intn(2048))*memlayout.PageSize
		size := uint64(rng.Intn(2048)+1) * memlayout.PageSize
		r := memlayout.Region{Base: memlayout.VA(lo), Size: size}
		want := 0
		for vpn := range mapped {
			if r.Contains(memlayout.VA(vpn << memlayout.PageShift)) {
				want++
			}
		}
		got := 0
		pt.ForEachPopulated(r, func(va memlayout.VA, pte *PTE) {
			if !r.Contains(va) || !pte.Present {
				t.Errorf("callback outside range or non-present: %v", va)
			}
			got++
		})
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
