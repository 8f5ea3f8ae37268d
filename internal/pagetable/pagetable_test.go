package pagetable

import (
	"math/rand"
	"runtime"
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
	// A random sequence of Map, Unmap, Lookup, SetKey, SetWritable, an
	// AppendTo/DecodeFrom round trip, a fork onto a decoded copy and a
	// decode of shuffled entries must agree with a Go map, and
	// ForEachPopulated must visit exactly the map's pages in a region, in
	// ascending VA order, on the table and its decoded copies.
	rng := rand.New(rand.NewSource(7))
	c := newChecker(t)
	randVPN := func() uint64 {
		if rng.Intn(2) == 0 { // three adjacent leaves, which PTEs share
			return 3<<27 + uint64(rng.Intn(3*memlayout.RadixFanout))
		}
		return uint64(rng.Intn(2048))*7919 + uint64(rng.Intn(64))<<30
	}
	randRegion := func() memlayout.Region {
		if rng.Intn(8) == 0 {
			return memlayout.Region{Size: 1 << 48} // the whole radix
		}
		a, b := pageVA(randVPN()), pageVA(randVPN())
		if a > b {
			a, b = b, a
		}
		// Unaligned ends: a page is in the region when its base is.
		a += memlayout.VA(rng.Intn(2 * memlayout.PageSize))
		return memlayout.Region{Base: a, Size: uint64(b-a) + uint64(rng.Intn(2*memlayout.PageSize))}
	}
	for i := 0; i < 5000; i++ {
		vpn := randVPN()
		switch op := rng.Intn(200); {
		case op < 80:
			c.mapPage(vpn, uint64(rng.Int63n(1<<30)), rng.Intn(4) != 0)
		case op < 120:
			c.unmap(vpn)
		case op < 160:
			c.lookup(vpn)
		case op < 180:
			c.setKey(randRegion(), uint8(rng.Intn(16)))
		case op < 196:
			c.setWritable(randRegion(), rng.Intn(2) == 0)
		case op < 198:
			c.fork(vpn, randRegion(), randRegion())
		case op < 199:
			c.roundTrip(randRegion())
		default:
			c.scramble(rng, randRegion())
		}
		if i%25 == 0 {
			c.check("table", c.pt, randRegion())
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

// TestSparseFootprint maps one page in each of 1,024 adjacent 2 MiB
// regions, the shape of a 1024-PMO checkpoint: every leaf holds a single
// present PTE. Mapping, cloning, encoding and decoding such a table must
// each allocate under 256 bytes per present PTE; a dense leaf of 512
// slots costs over 8 KiB.
func TestSparseFootprint(t *testing.T) {
	const pages, budget = 1024, 256
	base := memlayout.VA(0x2000_0000_0000)
	pt := New()
	var enc []byte
	for _, step := range []struct {
		name string
		fn   func()
	}{
		{"Map", func() {
			for i := 0; i < pages; i++ {
				va := base + memlayout.VA(i)<<memlayout.LevelShift(1)
				pt.Map(va, memlayout.PA(i+1)<<memlayout.PageShift, true)
			}
		}},
		{"AppendTo", func() { enc = pt.AppendTo(nil) }},
		{"DecodeFrom", func() {
			if err := new(Table).DecodeFrom(bincodec.NewReader(enc)); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		step.fn()
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / pages; per >= budget {
			t.Errorf("%s allocates %d B per present PTE, want under %d", step.name, per, budget)
		}
	}
	if pt.Populated() != pages {
		t.Fatalf("Populated = %d, want %d", pt.Populated(), pages)
	}
}
