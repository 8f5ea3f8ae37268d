// Package cache models a two-level cache hierarchy — per-core L1D caches
// over a shared L2 — kept coherent with a directory-based MESI protocol,
// per the paper's Table II configuration (L1D 32 KB 8-way 1 cycle; L2 1 MB
// 16-way 8 cycles; directory-based MESI).
package cache

import (
	"fmt"

	"domainvirt/internal/memlayout"
)

// BlockShift is log2 of the cache block size (64 bytes).
const BlockShift = 6

// BlockOf returns the block address (block-aligned) of pa.
func BlockOf(pa memlayout.PA) uint64 { return uint64(pa) >> BlockShift }

// State is a MESI coherence state.
type State uint8

// MESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// Config describes one cache level.
type Config struct {
	SizeBytes int
	Ways      int
	Latency   uint64
}

// line is one cache line (tag-only; the model tracks addresses, not data).
type line struct {
	tag   uint64
	state State
}

// Cache is one set-associative tag-only cache. Lines and recency stamps
// live in flat set-major arrays (set s, way w at index s*ways+w): one
// bounds check and no per-set slice-header chase on the lookup scans
// that dominate the simulator's hot path.
type Cache struct {
	lines   []line
	lru     []uint32
	clock   uint32
	ways    int
	setMask uint64

	hits   uint64
	misses uint64
}

// Check reports why cfg is no cache geometry, or nil: its blocks must be
// a positive multiple of Ways and the set count a power of two.
func (cfg Config) Check() error {
	blocks := cfg.SizeBytes >> BlockShift
	if cfg.Ways <= 0 || blocks <= 0 || blocks%cfg.Ways != 0 {
		return fmt.Errorf("cache: invalid geometry: %d bytes in %d ways", cfg.SizeBytes, cfg.Ways)
	}
	if nsets := blocks / cfg.Ways; nsets&(nsets-1) != 0 {
		return fmt.Errorf("cache: set count %d must be a power of two", nsets)
	}
	return nil
}

// New constructs a cache from cfg. It panics on a geometry Check
// refuses.
func New(cfg Config) *Cache {
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	blocks := cfg.SizeBytes >> BlockShift
	nsets := blocks / cfg.Ways
	return &Cache{
		lines:   make([]line, blocks),
		lru:     make([]uint32, blocks),
		ways:    cfg.Ways,
		setMask: uint64(nsets - 1),
	}
}

// baseOf returns the flat index of way 0 of block's set.
func (c *Cache) baseOf(block uint64) int { return int(block&c.setMask) * c.ways }

// Probe looks up block, returning its state without changing recency.
func (c *Cache) Probe(block uint64) (State, bool) {
	base := c.baseOf(block)
	set := c.lines[base : base+c.ways]
	for w := range set {
		if set[w].state != Invalid && set[w].tag == block {
			return set[w].state, true
		}
	}
	return Invalid, false
}

// Touch looks up block and refreshes recency; returns hit state.
func (c *Cache) Touch(block uint64) (State, bool) {
	st, _, hit := c.TouchPos(block)
	return st, hit
}

// TouchPos is Touch returning, additionally, the flat line index of the
// hit so the caller can update its state via SetStateAt without a second
// scan.
func (c *Cache) TouchPos(block uint64) (State, int, bool) {
	base := c.baseOf(block)
	set := c.lines[base : base+c.ways]
	for w := range set {
		if set[w].state != Invalid && set[w].tag == block {
			c.clock++
			c.lru[base+w] = c.clock
			c.hits++
			return set[w].state, base + w, true
		}
	}
	c.misses++
	return Invalid, 0, false
}

// TouchAt revalidates a previously observed hit position: if pos still
// holds a live line for block it replays exactly the bookkeeping a
// TouchPos hit performs (recency refresh, hit count) and returns the
// state. Any staleness — the line evicted, invalidated, or replaced —
// returns false with no state change (no miss is counted), so callers
// fall back to a full TouchPos. A tag equal to block can only live in
// block's own set and in at most one way of it, so the position check is
// a complete hit test.
func (c *Cache) TouchAt(pos int, block uint64) (State, bool) {
	if pos < 0 || pos >= len(c.lines) {
		return Invalid, false
	}
	ln := &c.lines[pos]
	if ln.state == Invalid || ln.tag != block {
		return Invalid, false
	}
	c.clock++
	c.lru[pos] = c.clock
	c.hits++
	return ln.state, true
}

// SetState updates the state of block if present.
func (c *Cache) SetState(block uint64, s State) {
	base := c.baseOf(block)
	set := c.lines[base : base+c.ways]
	for w := range set {
		if set[w].state != Invalid && set[w].tag == block {
			set[w].state = s
			return
		}
	}
}

// SetStateAt updates the line at a flat index previously returned by
// TouchPos for the same block, skipping the set rescan.
func (c *Cache) SetStateAt(idx int, s State) { c.lines[idx].state = s }

// Fill inserts block with state s, returning the evicted block (if any)
// and whether it was dirty (Modified).
func (c *Cache) Fill(block uint64, s State) (victim uint64, dirty, evicted bool) {
	base := c.baseOf(block)
	set := c.lines[base : base+c.ways]
	way := -1
	for w := range set {
		if set[w].state != Invalid && set[w].tag == block {
			way = w
			break
		}
	}
	if way < 0 {
		for w := range set {
			if set[w].state == Invalid {
				way = w
				break
			}
		}
	}
	if way < 0 {
		way = 0
		oldest := c.lru[base]
		for w := 1; w < c.ways; w++ {
			if c.lru[base+w] < oldest {
				oldest = c.lru[base+w]
				way = w
			}
		}
		victim = set[way].tag
		dirty = set[way].state == Modified
		evicted = true
	}
	set[way] = line{tag: block, state: s}
	c.clock++
	c.lru[base+way] = c.clock
	return victim, dirty, evicted
}

// Stats returns (hits, misses).
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// cacheState is one Cache's mutable state as a snapshot stores it.
type cacheState struct {
	lines  []line
	lru    []uint32
	clock  uint32
	hits   uint64
	misses uint64
}

// stored returns the cache's state, aliasing its arrays.
func (c *Cache) stored() *cacheState {
	return &cacheState{c.lines, c.lru, c.clock, c.hits, c.misses}
}

// fits reports whether s is a state of a cache of c's size.
func (c *Cache) fits(s *cacheState) bool {
	return s != nil && len(s.lines) == len(c.lines) && len(s.lru) == len(c.lines)
}

// adopt makes s, which fits c, the cache's state, taking over its arrays.
func (c *Cache) adopt(s *cacheState) {
	c.lines, c.lru = s.lines, s.lru
	c.clock, c.hits, c.misses = s.clock, s.hits, s.misses
}
