package tlb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"domainvirt/internal/memlayout"
)

func TestLookupAfterInsert(t *testing.T) {
	tl := New(Config{Entries: 64, Ways: 4})
	tl.Insert(Entry{VPN: 100, PFN: 200, Writable: true, Tag: 7})
	e, ok := tl.Lookup(100)
	if !ok {
		t.Fatal("inserted entry missing")
	}
	if e.PFN != 200 || e.Tag != 7 || !e.Writable {
		t.Errorf("entry corrupted: %+v", e)
	}
	if _, ok := tl.Lookup(101); ok {
		t.Error("phantom hit")
	}
}

func TestInsertUpdatesExisting(t *testing.T) {
	tl := New(Config{Entries: 64, Ways: 4})
	tl.Insert(Entry{VPN: 5, Tag: 1})
	tl.Insert(Entry{VPN: 5, Tag: 2})
	e, _ := tl.Lookup(5)
	if e.Tag != 2 {
		t.Errorf("tag = %d, want updated 2", e.Tag)
	}
	// No duplicate: invalidating once removes it entirely.
	tl.Invalidate(5)
	if _, ok := tl.Lookup(5); ok {
		t.Error("duplicate entry left behind")
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct construction of a single-set TLB: 4 entries, 4 ways.
	tl := New(Config{Entries: 4, Ways: 4})
	for vpn := uint64(0); vpn < 4; vpn++ {
		tl.Insert(Entry{VPN: vpn * 4}) // same set (set index = vpn & 0)
	}
	// Touch all but VPN 4 (the second insert).
	tl.Lookup(0)
	tl.Lookup(8)
	tl.Lookup(12)
	victim, evicted := tl.Insert(Entry{VPN: 16})
	if !evicted || victim.VPN != 4 {
		t.Errorf("evicted %+v, want LRU VPN 4", victim)
	}
}

func TestFlushRangeExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := New(Config{Entries: 256, Ways: 4})
		present := make(map[uint64]bool)
		for i := 0; i < 128; i++ {
			vpn := uint64(rng.Intn(512))
			if v, ev := tl.Insert(Entry{VPN: vpn}); ev {
				delete(present, v.VPN)
			}
			present[vpn] = true
		}
		lo := uint64(rng.Intn(256))
		n := uint64(rng.Intn(256) + 1)
		r := memlayout.Region{
			Base: memlayout.VA(lo << memlayout.PageShift),
			Size: n * memlayout.PageSize,
		}
		want := 0
		for vpn := range present {
			if vpn >= lo && vpn < lo+n {
				want++
			}
		}
		got := tl.FlushRange(r, nil)
		if got != want {
			return false
		}
		// In-range entries gone, out-of-range intact.
		for vpn := range present {
			_, ok := tl.Lookup(vpn)
			inRange := vpn >= lo && vpn < lo+n
			if inRange == ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFlushRangeCallback(t *testing.T) {
	tl := New(Config{Entries: 64, Ways: 4})
	for vpn := uint64(10); vpn < 20; vpn++ {
		tl.Insert(Entry{VPN: vpn})
	}
	var flushed []uint64
	r := memlayout.Region{Base: 12 << memlayout.PageShift, Size: 4 * memlayout.PageSize}
	n := tl.FlushRange(r, func(vpn uint64) { flushed = append(flushed, vpn) })
	if n != 4 || len(flushed) != 4 {
		t.Fatalf("flushed %d entries (callback %d), want 4", n, len(flushed))
	}
	for _, vpn := range flushed {
		if vpn < 12 || vpn > 15 {
			t.Errorf("callback vpn %d outside range", vpn)
		}
	}
}

func TestFlushAll(t *testing.T) {
	tl := New(Config{Entries: 64, Ways: 4})
	for vpn := uint64(0); vpn < 30; vpn++ {
		tl.Insert(Entry{VPN: vpn})
	}
	if n := tl.FlushAll(); n != 30 {
		t.Errorf("FlushAll = %d, want 30", n)
	}
	if n := tl.FlushAll(); n != 0 {
		t.Errorf("second FlushAll = %d, want 0", n)
	}
}

func TestStatsCounting(t *testing.T) {
	tl := New(Config{Entries: 64, Ways: 4})
	tl.Insert(Entry{VPN: 1})
	tl.Lookup(1)
	tl.Lookup(2)
	h, m, _ := tl.Stats()
	if h != 1 || m != 1 {
		t.Errorf("stats = (%d,%d), want (1,1)", h, m)
	}
}

func TestDebt(t *testing.T) {
	d := NewDebt()
	d.Owe(5)
	d.Owe(5)
	d.Owe(9)
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2 (dedup)", d.Len())
	}
	if !d.Settle(5) {
		t.Error("owed page not settled")
	}
	if d.Settle(5) {
		t.Error("double settle")
	}
	if d.Settle(1) {
		t.Error("settled a page never owed")
	}
	d.Reset()
	if d.Len() != 0 {
		t.Error("reset left debt")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Entries: 0, Ways: 1},
		{Entries: 7, Ways: 2},
		{Entries: 24, Ways: 4}, // 6 sets: not a power of two
	} {
		if cfg.Check() == nil {
			t.Errorf("Check accepted %+v", cfg)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// TestBlockCountsAgainstScan is the referee for the block counts: random
// Insert, Lookup, Invalidate, FlushRange, FlushAll and Adopt calls on a
// small and a full-size geometry. After every step the counts must equal
// a recount of the valid entries, and every FlushRange must flush, report
// and call back exactly what a plain scan of the entries finds.
func TestBlockCountsAgainstScan(t *testing.T) {
	// Blocks 0 and blockSlots, 1 and blockSlots+1, and 2 and
	// 2*blockSlots+2 share a counter.
	blocks := []uint64{0, 1, 2, 5, blockSlots, blockSlots + 1, 2*blockSlots + 2, 1 << 24}
	for _, cfg := range []Config{{Entries: 64, Ways: 4}, {Entries: 1536, Ways: 6}} {
		t.Run(fmt.Sprint(cfg.Entries), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(cfg.Entries)))
			randVPN := func() uint64 {
				off := uint64(rng.Intn(1 << blockShift))
				if rng.Intn(2) == 0 {
					off %= 32 // revisit a few pages: Insert's same-VPN update
				}
				return blocks[rng.Intn(len(blocks))]<<blockShift | off
			}
			randRegion := func() memlayout.Region {
				const blockBytes = memlayout.PageSize << blockShift
				switch rng.Intn(8) {
				case 0:
					return memlayout.Region{} // empty, at VA 0
				case 1: // spans every counter and more
					b := blocks[rng.Intn(len(blocks))]
					n := uint64(blockSlots + rng.Intn(blockSlots))
					return memlayout.Region{Base: memlayout.VA(b * blockBytes), Size: n * blockBytes}
				case 2: // an 8 MiB attach region, four whole blocks
					b := blocks[rng.Intn(len(blocks))] &^ 3
					return memlayout.Region{Base: memlayout.VA(b * blockBytes), Size: 4 * blockBytes}
				default: // any bytes around a counted page
					base := memlayout.VA(randVPN()<<memlayout.PageShift) + memlayout.VA(rng.Intn(2*memlayout.PageSize)) - memlayout.PageSize
					return memlayout.Region{Base: base, Size: uint64(rng.Intn(4 * blockBytes))}
				}
			}
			tl := New(cfg)
			var saved []State
			for step := 0; step < 20000; step++ {
				switch op := rng.Intn(100); {
				case op < 45:
					tl.Insert(Entry{VPN: randVPN(), PFN: uint64(step)})
				case op < 60:
					tl.Lookup(randVPN())
				case op < 70:
					tl.Invalidate(randVPN())
				case op < 93:
					r := randRegion()
					before := slices.Clone(tl.entries)
					var want []uint64
					if r.Size > 0 {
						lo, hi := memlayout.PageNum(r.Base), memlayout.PageNum(r.End()-1)
						for i, e := range before {
							if e.Valid && e.VPN >= lo && e.VPN <= hi {
								want = append(want, e.VPN)
								before[i].Valid = false
							}
						}
					}
					var got []uint64
					n := tl.FlushRange(r, func(vpn uint64) { got = append(got, vpn) })
					if n != len(want) || !slices.Equal(got, want) {
						t.Fatalf("step %d: FlushRange(%v) = %d calling back %v; a scan finds %v", step, r, n, got, want)
					}
					if !slices.Equal(tl.entries, before) {
						t.Fatalf("step %d: FlushRange(%v) left entries a scan would not", step, r)
					}
				case op < 95:
					valid := 0
					for _, e := range tl.entries {
						if e.Valid {
							valid++
						}
					}
					if n := tl.FlushAll(); n != valid {
						t.Fatalf("step %d: FlushAll = %d, want %d", step, n, valid)
					}
				case op < 97:
					saved = append(saved, copyState(tl.Stored()))
				default:
					if len(saved) > 0 {
						if err := tl.Adopt(copyState(saved[rng.Intn(len(saved))])); err != nil {
							t.Fatal(err)
						}
					}
				}
				var recount [blockSlots]uint32
				for _, e := range tl.entries {
					if e.Valid {
						recount[blockSlot(e.VPN)]++
					}
				}
				if recount != tl.blocks {
					t.Fatalf("step %d: block counts drifted from a recount of the valid entries", step)
				}
			}
		})
	}
}

// copyState returns s with arrays of its own, as a decoded snapshot has.
func copyState(s State) State {
	s.entries, s.lru = slices.Clone(s.entries), slices.Clone(s.lru)
	return s
}

// TestRestoreRejectsShortRecencyState: on disk a snapshot's entries and
// recency stamps carry separate counts, so a decoded snapshot can pair
// full entries with short stamps. Adopt must refuse it rather than take
// the short stamps over and index past their end later.
func TestRestoreRejectsShortRecencyState(t *testing.T) {
	tl := New(Config{Entries: 64, Ways: 4})
	for vpn := uint64(0); vpn < 100; vpn++ {
		tl.Insert(Entry{VPN: vpn, PFN: vpn + 1, Valid: true})
	}
	s := copyState(tl.Stored())
	s.lru = s.lru[:len(s.lru)/2]
	fresh := New(Config{Entries: 64, Ways: 4})
	if err := fresh.Adopt(s); err == nil {
		t.Error("Adopt accepted a short recency-stamp slice")
	}
	if err := New(Config{Entries: 32, Ways: 4}).Adopt(copyState(tl.Stored())); err == nil {
		t.Error("Adopt accepted the state of a larger TLB")
	}
}
