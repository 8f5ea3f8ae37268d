// Package tlb models set-associative translation lookaside buffers whose
// entries carry, besides the translation, either a 4-bit protection key
// (MPK and hardware MPK virtualization) or a 10-bit domain ID (hardware
// domain virtualization). It provides the range invalidation (Range_Flush)
// primitive used by key remapping and tracks "invalidation debt" so the
// simulator can attribute refill misses caused by shootdowns.
//
// A range flush costs what it touches: each TLB counts its valid entries
// per 2 MiB block of pages, so a shootdown of a range holding none of
// them returns without scanning the entries.
package tlb

import (
	"fmt"

	"domainvirt/internal/memlayout"
)

// Entry is one TLB entry. Tag is scheme-defined: the protection key for
// MPK-based schemes or the domain ID for domain virtualization; 0 means
// domainless in both encodings.
type Entry struct {
	VPN      uint64
	PFN      uint64
	Writable bool
	Tag      uint16
	Valid    bool
}

// Config describes one TLB level.
type Config struct {
	Entries int
	Ways    int
}

// blockShift is log2 of the pages in one counted block: 512 pages, the
// 2 MiB a last-level page-table node maps.
const blockShift = memlayout.RadixBits

// blockSlots is the number of block counters in a TLB. Block b counts in
// slot b mod blockSlots, so no two blocks of a contiguous 2 GiB share a
// counter; blocks further apart may, and then a flush of one scans when
// the other holds entries.
const blockSlots = 1024

// blockSlot returns the counter slot of the block holding vpn.
func blockSlot(vpn uint64) uint64 { return (vpn >> blockShift) & (blockSlots - 1) }

// TLB is a set-associative TLB with per-set LRU replacement. Entries and
// recency stamps live in flat set-major arrays (set s, way w at index
// s*ways+w): the per-access lookup scan touches one contiguous run with a
// single bounds check instead of chasing nested slice headers, and a flat
// position doubles as a compact handle for TouchHit revalidation.
type TLB struct {
	entries []Entry
	lru     []uint32 // per-way recency stamps
	clock   uint32
	ways    int
	setMask uint64

	hits      uint64
	misses    uint64
	evictions uint64

	// blocks[blockSlot(vpn)] counts the valid entries whose VPN falls in
	// a block hashed to that slot. It is derived state: every change of
	// an entry's validity updates it, Adopt rebuilds it, and snapshots
	// never carry it. A fixed array keeps it inside the TLB's one
	// allocation.
	blocks [blockSlots]uint32
}

// Check reports why cfg is no TLB geometry, or nil: Entries must be a
// positive multiple of Ways and the set count a power of two.
func (cfg Config) Check() error {
	if cfg.Ways <= 0 || cfg.Entries <= 0 || cfg.Entries%cfg.Ways != 0 {
		return fmt.Errorf("tlb: invalid geometry: %d entries in %d ways", cfg.Entries, cfg.Ways)
	}
	if nsets := cfg.Entries / cfg.Ways; nsets&(nsets-1) != 0 {
		return fmt.Errorf("tlb: set count %d must be a power of two", nsets)
	}
	return nil
}

// New constructs a TLB. It panics on a geometry Check refuses.
func New(cfg Config) *TLB {
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	nsets := cfg.Entries / cfg.Ways
	return &TLB{
		entries: make([]Entry, cfg.Entries),
		lru:     make([]uint32, cfg.Entries),
		ways:    cfg.Ways,
		setMask: uint64(nsets - 1),
	}
}

// baseOf returns the flat index of way 0 of vpn's set.
func (t *TLB) baseOf(vpn uint64) int { return int(vpn&t.setMask) * t.ways }

// Lookup probes the TLB for vpn. On a hit it returns a pointer to the
// entry (valid until the next mutation) and refreshes its recency.
func (t *TLB) Lookup(vpn uint64) (*Entry, bool) {
	e, _, ok := t.LookupPos(vpn)
	return e, ok
}

// LookupPos is Lookup returning, additionally, the flat position of the
// hit entry so callers can revalidate it later via TouchHit.
func (t *TLB) LookupPos(vpn uint64) (e *Entry, pos int, ok bool) {
	base := t.baseOf(vpn)
	set := t.entries[base : base+t.ways]
	for w := range set {
		if set[w].Valid && set[w].VPN == vpn {
			t.clock++
			t.lru[base+w] = t.clock
			t.hits++
			return &set[w], base + w, true
		}
	}
	t.misses++
	return nil, 0, false
}

// TouchHit revalidates a previously observed entry position: if pos still
// holds a valid entry for vpn it replays exactly the bookkeeping a Lookup
// hit performs (recency refresh, hit count) and returns the entry. Any
// staleness — the entry evicted, invalidated, or replaced — returns false
// with no state change, so callers fall back to a full Lookup. A VPN
// lives in at most one way of its set, making the position check a
// complete hit test.
func (t *TLB) TouchHit(pos int, vpn uint64) (*Entry, bool) {
	if pos < 0 || pos >= len(t.entries) {
		return nil, false
	}
	e := &t.entries[pos]
	if !e.Valid || e.VPN != vpn {
		return nil, false
	}
	t.clock++
	t.lru[pos] = t.clock
	t.hits++
	return e, true
}

// InsertPos is Insert returning, additionally, the flat position the
// entry landed in.
func (t *TLB) InsertPos(e Entry) (pos int, victim Entry, evicted bool) {
	return t.insert(e, t.baseOf(e.VPN))
}

// Insert fills e into the TLB, evicting the LRU way if the set is full.
// It returns the evicted entry, if any.
func (t *TLB) Insert(e Entry) (victim Entry, evicted bool) {
	_, victim, evicted = t.insert(e, t.baseOf(e.VPN))
	return victim, evicted
}

func (t *TLB) insert(e Entry, base int) (pos int, victim Entry, evicted bool) {
	e.Valid = true
	set := t.entries[base : base+t.ways]
	// Prefer an existing entry for the same VPN, then an invalid way.
	way := -1
	for w := range set {
		if set[w].Valid && set[w].VPN == e.VPN {
			way = w
			break
		}
	}
	if way < 0 {
		// A new VPN: it fills an invalid way or evicts the LRU one.
		t.blocks[blockSlot(e.VPN)]++
		for w := range set {
			if !set[w].Valid {
				way = w
				break
			}
		}
	}
	if way < 0 {
		way = 0
		oldest := t.lru[base]
		for w := 1; w < t.ways; w++ {
			if t.lru[base+w] < oldest {
				oldest = t.lru[base+w]
				way = w
			}
		}
		victim, evicted = set[way], true
		t.evictions++
		t.blocks[blockSlot(victim.VPN)]--
	}
	set[way] = e
	t.clock++
	t.lru[base+way] = t.clock
	return base + way, victim, evicted
}

// Invalidate removes the entry for vpn if present.
func (t *TLB) Invalidate(vpn uint64) bool {
	base := t.baseOf(vpn)
	set := t.entries[base : base+t.ways]
	for w := range set {
		if set[w].Valid && set[w].VPN == vpn {
			set[w].Valid = false
			t.blocks[blockSlot(vpn)]--
			return true
		}
	}
	return false
}

// FlushRange invalidates every entry whose page lies inside r, calling fn
// (if non-nil) with each flushed VPN in entry order, and returns the
// number flushed. This is the Range_Flush primitive of the hardware
// MPK-virtualization design. An empty region flushes nothing, and so
// does a range whose blocks all count zero entries, without a scan.
func (t *TLB) FlushRange(r memlayout.Region, fn func(vpn uint64)) int {
	if r.Size == 0 {
		return 0
	}
	lo := memlayout.PageNum(r.Base)
	hi := memlayout.PageNum(r.End() - 1)
	if !t.mayHold(lo, hi) {
		return 0
	}
	n := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.Valid && e.VPN >= lo && e.VPN <= hi {
			if fn != nil {
				fn(e.VPN)
			}
			e.Valid = false
			t.blocks[blockSlot(e.VPN)]--
			n++
		}
	}
	return n
}

// mayHold reports whether a valid entry can lie in pages [lo, hi]: false
// only when every block of the range counts zero. A range of at least
// blockSlots blocks covers every counter, so it is always scanned.
func (t *TLB) mayHold(lo, hi uint64) bool {
	first, last := lo>>blockShift, hi>>blockShift
	if last-first >= blockSlots-1 {
		return true
	}
	for b := first; b <= last; b++ {
		if t.blocks[b&(blockSlots-1)] != 0 {
			return true
		}
	}
	return false
}

// FlushAll invalidates every entry and returns the number flushed.
func (t *TLB) FlushAll() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].Valid {
			t.entries[i].Valid = false
			n++
		}
	}
	clear(t.blocks[:])
	return n
}

// Stats returns (hits, misses, evictions).
func (t *TLB) Stats() (hits, misses, evictions uint64) {
	return t.hits, t.misses, t.evictions
}

// State is a TLB's mutable state as a snapshot stores it: entries,
// recency stamps and statistics. The block counts are not part of it;
// Adopt rebuilds them.
type State struct {
	entries   []Entry
	lru       []uint32
	clock     uint32
	hits      uint64
	misses    uint64
	evictions uint64
}

// Stored returns the TLB's state, aliasing its arrays: it is valid until
// the TLB next changes, long enough to encode it.
func (t *TLB) Stored() State {
	return State{t.entries, t.lru, t.clock, t.hits, t.misses, t.evictions}
}

// Adopt makes s the TLB's state, taking over its arrays, and rebuilds the
// block counts from its entries. It refuses a state whose entries or
// recency stamps do not number the TLB's entries, changing nothing.
func (t *TLB) Adopt(s State) error {
	if len(s.entries) != len(t.entries) || len(s.lru) != len(t.entries) {
		return fmt.Errorf("tlb: state of %d entries and %d stamps for a %d-entry TLB",
			len(s.entries), len(s.lru), len(t.entries))
	}
	t.entries, t.lru = s.entries, s.lru
	t.clock, t.hits, t.misses, t.evictions = s.clock, s.hits, s.misses, s.evictions
	clear(t.blocks[:])
	for i := range t.entries {
		if t.entries[i].Valid {
			t.blocks[blockSlot(t.entries[i].VPN)]++
		}
	}
	return nil
}

// Debt tracks pages flushed by TLB invalidations so that the later refill
// miss can be attributed to the invalidation ("subsequent TLB misses
// resulting from TLB invalidations is also taken into account").
type Debt struct {
	pages map[uint64]struct{}
}

// NewDebt returns an empty debt set.
func NewDebt() *Debt { return &Debt{pages: make(map[uint64]struct{})} }

// Owe records that vpn was flushed by an invalidation.
func (d *Debt) Owe(vpn uint64) { d.pages[vpn] = struct{}{} }

// Settle reports whether vpn was owed, consuming the debt. The empty-set
// fast path keeps the common case (no outstanding shootdowns) off the map
// hash entirely — Settle runs on every TLB miss.
func (d *Debt) Settle(vpn uint64) bool {
	if len(d.pages) == 0 {
		return false
	}
	if _, ok := d.pages[vpn]; ok {
		delete(d.pages, vpn)
		return true
	}
	return false
}

// Len returns the number of outstanding owed pages.
func (d *Debt) Len() int { return len(d.pages) }

// Reset empties the debt set in place, reusing the map's storage so a
// reset-heavy caller (one per machine stats reset) never reallocates.
func (d *Debt) Reset() { clear(d.pages) }

// Stored returns the owed-page set itself, valid until the set next
// changes.
func (d *Debt) Stored() map[uint64]struct{} { return d.pages }

// Adopt makes pages, which must be non-nil, the owed-page set.
func (d *Debt) Adopt(pages map[uint64]struct{}) { d.pages = pages }
