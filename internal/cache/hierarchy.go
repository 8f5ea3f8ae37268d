package cache

import (
	"domainvirt/internal/memlayout"
)

// MemBackend supplies memory latency for blocks that miss the hierarchy.
type MemBackend interface {
	Access(pa memlayout.PA, write bool) uint64
}

// Hierarchy is per-core L1Ds over a shared L2 with a directory-based MESI
// protocol. The directory sits alongside the L2 and tracks which cores hold
// each block; it is used to invalidate remote copies on writes and to
// source dirty data from a remote Modified owner.
type Hierarchy struct {
	l1   []*Cache
	l2   *Cache
	dir  map[uint64]*dirEntry
	mem  MemBackend
	l1La uint64
	l2La uint64

	// lastPos memoizes, per core, the flat L1 position of the most recent
	// hit. Cache.TouchAt revalidates it before use, so a stale position
	// only costs the fallback scan — it can never change an outcome.
	lastPos []int

	remoteInvals uint64
	dirtyFwds    uint64
}

type dirEntry struct {
	sharers uint64 // bitmask of cores with the block in L1
	owner   int    // core holding Modified, or -1
}

// NewHierarchy builds the cache hierarchy for ncores cores.
func NewHierarchy(ncores int, l1cfg, l2cfg Config, mem MemBackend) *Hierarchy {
	h := &Hierarchy{
		l2:   New(l2cfg),
		dir:  make(map[uint64]*dirEntry),
		mem:  mem,
		l1La: l1cfg.Latency,
		l2La: l2cfg.Latency,
	}
	for i := 0; i < ncores; i++ {
		h.l1 = append(h.l1, New(l1cfg))
		h.lastPos = append(h.lastPos, -1)
	}
	return h
}

// Level identifies where an access was satisfied.
type Level int

// Access levels.
const (
	LevelL1 Level = iota
	LevelL2
	LevelMem
)

// Access performs a load or store by core to pa and returns the latency in
// cycles and the level that satisfied it.
//
// On a single-core machine all directory maintenance is skipped: every
// directory consumer (remote invalidation, dirty forwarding, sharer
// tracking) is cross-core, so with one core the directory can never add
// latency or change any observable statistic.
func (h *Hierarchy) Access(core int, pa memlayout.PA, write bool) (uint64, Level) {
	block := BlockOf(pa)
	l1 := h.l1[core]
	lat := h.l1La
	single := len(h.l1) == 1

	st, hit := l1.TouchAt(h.lastPos[core], block)
	pos := h.lastPos[core]
	if !hit {
		st, pos, hit = l1.TouchPos(block)
		if hit {
			h.lastPos[core] = pos
		}
	}
	if hit {
		if write {
			if st != Modified {
				l1.SetStateAt(pos, Modified)
			}
			if !single {
				de := h.dir[block]
				if st == Shared {
					// Upgrade: invalidate other sharers via the directory.
					lat += h.invalidateOthers(core, block, de)
				}
				// Record ownership so later readers dirty-forward from us.
				if de != nil {
					de.sharers = 1 << uint(core)
					de.owner = core
				}
			}
		}
		return lat, LevelL1
	}

	// L1 miss: consult shared L2 + directory. The directory entry is
	// fetched once; no path below can add or remove dir[block] (L1/L2
	// fill victims are always other blocks), so the pointer stays valid.
	lat += h.l2La
	var de *dirEntry
	if !single {
		de = h.dir[block]
		if de != nil && de.owner >= 0 && de.owner != core {
			// Dirty in a remote L1: force writeback to L2 and transfer.
			h.l1[de.owner].SetState(block, Shared)
			h.dirtyFwds++
			lat += h.l2La
			de.sharers |= 1 << uint(de.owner)
			de.owner = -1
			h.l2.Fill(block, Modified)
		}
	}

	level := LevelL2
	if _, hit := h.l2.Touch(block); !hit {
		lat += h.mem.Access(pa, false)
		level = LevelMem
		if v, dirty, ev := h.l2.Fill(block, Exclusive); ev {
			// Inclusive hierarchy: back-invalidate L1 copies of the victim.
			h.backInvalidate(v)
			if dirty {
				lat += h.mem.Access(memlayout.PA(v<<BlockShift), true)
			}
		}
	}

	st = Shared
	if write {
		if !single {
			lat += h.invalidateOthers(core, block, de)
		}
		st = Modified
	}
	if v, dirty, ev := l1.Fill(block, st); ev {
		if !single {
			h.dropSharer(core, v)
		}
		if dirty {
			h.l2.Fill(v, Modified)
		}
	}

	if !single {
		if de == nil {
			de = &dirEntry{owner: -1}
			h.dir[block] = de
		}
		if write {
			de.sharers = 1 << uint(core)
			de.owner = core
		} else {
			de.sharers |= 1 << uint(core)
			if de.owner == core {
				de.owner = -1
			}
		}
	}
	return lat, level
}

// invalidateOthers removes all remote L1 copies of block (whose directory
// entry the caller already fetched) and returns the extra latency of the
// invalidation round.
func (h *Hierarchy) invalidateOthers(core int, block uint64, de *dirEntry) uint64 {
	if de == nil {
		return 0
	}
	var lat uint64
	for c := range h.l1 {
		if c == core {
			continue
		}
		if de.sharers&(1<<uint(c)) != 0 {
			h.l1[c].SetState(block, Invalid)
			h.remoteInvals++
			lat += h.l2La // one directory round per remote copy
		}
	}
	de.sharers = 1 << uint(core)
	if de.owner != core {
		de.owner = -1
	}
	return lat
}

// backInvalidate removes block from every L1 (inclusion victim).
func (h *Hierarchy) backInvalidate(block uint64) {
	for c := range h.l1 {
		h.l1[c].SetState(block, Invalid)
	}
	delete(h.dir, block)
}

func (h *Hierarchy) dropSharer(core int, block uint64) {
	if de := h.dir[block]; de != nil {
		de.sharers &^= 1 << uint(core)
		if de.owner == core {
			de.owner = -1
		}
		if de.sharers == 0 {
			delete(h.dir, block)
		}
	}
}

// HierarchyState is a deep copy of the hierarchy's mutable state: every
// cache level, the coherence directory, the per-core position memos, and
// the coherence statistics. It is immutable once taken.
type HierarchyState struct {
	l1           []*CacheState
	l2           *CacheState
	dir          map[uint64]dirEntry
	lastPos      []int
	remoteInvals uint64
	dirtyFwds    uint64
}

// Snapshot captures the full hierarchy state.
func (h *Hierarchy) Snapshot() *HierarchyState {
	s := &HierarchyState{}
	h.SnapshotInto(s)
	return s
}

// SnapshotInto overwrites s with a fresh snapshot, reusing s's storage
// when the geometry matches (the pooled-buffer path).
func (h *Hierarchy) SnapshotInto(s *HierarchyState) {
	if len(s.l1) != len(h.l1) {
		s.l1 = make([]*CacheState, len(h.l1))
		for i := range s.l1 {
			s.l1[i] = &CacheState{}
		}
		s.l2 = &CacheState{}
		s.lastPos = make([]int, len(h.lastPos))
	}
	for i, c := range h.l1 {
		c.SnapshotInto(s.l1[i])
	}
	h.l2.SnapshotInto(s.l2)
	if s.dir == nil {
		s.dir = make(map[uint64]dirEntry, len(h.dir))
	} else {
		clear(s.dir)
	}
	for block, de := range h.dir {
		s.dir[block] = *de
	}
	copy(s.lastPos, h.lastPos)
	s.remoteInvals = h.remoteInvals
	s.dirtyFwds = h.dirtyFwds
}

// Restore reinstates a snapshot taken from a hierarchy of identical
// geometry (same core count and cache configurations).
func (h *Hierarchy) Restore(s *HierarchyState) {
	if len(s.l1) != len(h.l1) || len(s.lastPos) != len(h.lastPos) {
		panic("cache: Restore core-count mismatch")
	}
	for i, c := range h.l1 {
		c.Restore(s.l1[i])
	}
	h.l2.Restore(s.l2)
	clear(h.dir)
	for block, de := range s.dir {
		e := de
		h.dir[block] = &e
	}
	copy(h.lastPos, s.lastPos)
	h.remoteInvals = s.remoteInvals
	h.dirtyFwds = s.dirtyFwds
}

// Stats returns per-level hit statistics: L1 hits/misses summed across
// cores, L2 hits/misses, remote invalidations, dirty forwards.
func (h *Hierarchy) Stats() (l1h, l1m, l2h, l2m, invals, fwds uint64) {
	for _, c := range h.l1 {
		hh, mm := c.Stats()
		l1h += hh
		l1m += mm
	}
	l2h, l2m = h.l2.Stats()
	return l1h, l1m, l2h, l2m, h.remoteInvals, h.dirtyFwds
}
