package cache

import (
	"fmt"

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

// HierarchyState is the hierarchy's mutable state as a snapshot stores
// it: every cache level, the coherence directory, the per-core position
// memos, and the coherence statistics.
type HierarchyState struct {
	l1           []*cacheState
	l2           *cacheState
	dir          map[uint64]dirEntry
	lastPos      []int
	remoteInvals uint64
	dirtyFwds    uint64
}

// Stored returns the hierarchy's state. It aliases the caches' arrays
// and the position memos, so it is valid until the hierarchy next
// changes, long enough to encode it; the directory, stored by value, is
// copied.
func (h *Hierarchy) Stored() *HierarchyState {
	s := &HierarchyState{
		l1:           make([]*cacheState, len(h.l1)),
		l2:           h.l2.stored(),
		dir:          make(map[uint64]dirEntry, len(h.dir)),
		lastPos:      h.lastPos,
		remoteInvals: h.remoteInvals,
		dirtyFwds:    h.dirtyFwds,
	}
	for i, c := range h.l1 {
		s.l1[i] = c.stored()
	}
	for block, de := range h.dir {
		s.dir[block] = *de
	}
	return s
}

// Adopt makes s the hierarchy's state, taking over its arrays and
// rebuilding the directory from it. It refuses a state of another core
// count or cache size, changing nothing.
func (h *Hierarchy) Adopt(s *HierarchyState) error {
	if s == nil {
		return fmt.Errorf("cache: no hierarchy state")
	}
	if len(s.l1) != len(h.l1) || len(s.lastPos) != len(h.lastPos) {
		return fmt.Errorf("cache: state of %d L1s and %d position memos for %d cores",
			len(s.l1), len(s.lastPos), len(h.l1))
	}
	for i, c := range h.l1 {
		if !c.fits(s.l1[i]) {
			return fmt.Errorf("cache: L1 state %d does not fit a %d-line L1", i, len(c.lines))
		}
	}
	if !h.l2.fits(s.l2) {
		return fmt.Errorf("cache: L2 state does not fit a %d-line L2", len(h.l2.lines))
	}
	for i, c := range h.l1 {
		c.adopt(s.l1[i])
	}
	h.l2.adopt(s.l2)
	h.dir = make(map[uint64]*dirEntry, len(s.dir))
	for block, de := range s.dir {
		h.dir[block] = &de
	}
	h.lastPos = s.lastPos
	h.remoteInvals = s.remoteInvals
	h.dirtyFwds = s.dirtyFwds
	return nil
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
