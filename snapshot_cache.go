package domainvirt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"domainvirt/internal/memlayout"
	"domainvirt/internal/sim"
	"domainvirt/internal/snapstore"
	"domainvirt/internal/tlb"
	"domainvirt/internal/workload"
)

// structuralConfig is the subset of Config that shapes the machine's
// state trajectory — geometry, not latency. Two configurations with the
// same structuralConfig drive every TLB, cache, page-table, and engine
// structure through identical states for the same event stream; the
// remaining fields (latencies, Costs, CPI, ClockHz) are pure accounting
// and are zeroed by the post-setup ResetStats. That makes one warmup
// snapshot valid across a whole cost-parameter sweep.
type structuralConfig struct {
	cores        int
	l1tlb, l2tlb tlb.Config
	l1dSize      int
	l1dWays      int
	l2Size       int
	l2Ways       int
	nvmBase      memlayout.PA
	dttlbEntries int
	ptlbEntries  int
}

func structuralOf(cfg Config) structuralConfig {
	return structuralConfig{
		cores:        cfg.Cores,
		l1tlb:        cfg.L1TLB,
		l2tlb:        cfg.L2TLB,
		l1dSize:      cfg.L1D.SizeBytes,
		l1dWays:      cfg.L1D.Ways,
		l2Size:       cfg.L2.SizeBytes,
		l2Ways:       cfg.L2.Ways,
		nvmBase:      cfg.Mem.NVMBase,
		dttlbEntries: cfg.DTTLBEntries,
		ptlbEntries:  cfg.PTLBEntries,
	}
}

// snapKey identifies one cacheable warmup: the workload and its resolved
// parameters fix the setup event stream, the scheme fixes the engine,
// and the structural configuration fixes how that stream shapes machine
// state.
type snapKey struct {
	name   string
	p      Params
	scheme Scheme
	sc     structuralConfig
}

// snapEntry is one warmup checkpoint; snap stays nil when the setup
// that would have built it was not forkable.
type snapEntry struct {
	once sync.Once
	snap *sim.Snapshot
}

// warmupParams normalizes p to its warmup identity: the resolved
// defaults with the ops horizon zeroed. Setup never reads P.Ops (only
// Run does), so cells differing only in run length share one warmup
// checkpoint — the premise of mid-run horizon forking.
func warmupParams(p Params) Params {
	p = p.Defaults()
	p.Ops = 0
	return p
}

// diskKey is the content address of the warmup checkpoint in a
// persistent store: a hash over the full warmup identity plus the codec
// version, so files written by an incompatible codec can never collide
// with current keys (the decoder's version check still guards files
// tampered in place).
func (k snapKey) diskKey() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("warmup|%s|%+v|%s|%+v|codec%d",
		k.name, k.p, k.scheme, k.sc, sim.SnapshotCodecVersion)))
	return hex.EncodeToString(h[:16])
}

// SnapshotKeyFor returns the content-addressed store key of the warmup
// checkpoint for one experiment cell. Coordinator and workers derive the
// same key independently, which is what lets a sweep job name a snapshot
// without shipping it.
func SnapshotKeyFor(name string, p Params, scheme Scheme, cfg Config) string {
	k := snapKey{name: name, p: warmupParams(p), scheme: scheme, sc: structuralOf(cfg)}
	return k.diskKey()
}

// SnapshotCacheStats counts how warmups were served. The ci.sh
// grid-twice gate asserts Warmups == 0 for a second process running
// against a primed -snapshot-dir.
type SnapshotCacheStats struct {
	// Warmups is the number of setup phases actually simulated (cold
	// cells: neither memory nor store had the checkpoint).
	Warmups int
	// MemHits is the number of cells served from an in-memory checkpoint.
	MemHits int
	// DiskHits is the number of checkpoints loaded from the store.
	DiskHits int
	// DiskRejects is the number of store files rejected — truncated,
	// checksum-failing, stale codec version, or geometry-mismatched —
	// and rebuilt.
	DiskRejects int
}

// SnapshotCache shares warmup state across experiment cells: the first
// cell with a given (workload, params, scheme, structural-config) key
// simulates the setup phase once and checkpoints the machine after
// ResetStats; every later cell forks from that checkpoint instead of
// re-simulating the warmup. Results are bit-identical to the uncached
// path. The cache is safe for concurrent use by a grid's worker pool and
// is meant to live across grids (Table VI and Table VII share warmups,
// as do the rows of a cost-parameter ablation).
// When built with NewSnapshotCacheDir, the cache is additionally backed
// by an internal/snapstore directory: checkpoints built in this process
// are encoded and written through, and a cold in-memory entry first
// tries the store — so warmups survive across processes and across the
// workers of a distributed sweep sharing one directory.
type SnapshotCache struct {
	mu      sync.Mutex
	entries map[snapKey]*snapEntry
	store   *snapstore.Store
	stats   SnapshotCacheStats
}

// NewSnapshotCache returns an empty, memory-only warmup snapshot cache.
func NewSnapshotCache() *SnapshotCache {
	return &SnapshotCache{entries: make(map[snapKey]*snapEntry)}
}

// NewSnapshotCacheDir returns a warmup snapshot cache persisted under
// dir (created if needed).
func NewSnapshotCacheDir(dir string) (*SnapshotCache, error) {
	st, err := snapstore.Open(dir)
	if err != nil {
		return nil, err
	}
	return &SnapshotCache{entries: make(map[snapKey]*snapEntry), store: st}, nil
}

func (c *SnapshotCache) entry(k snapKey) *snapEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		e = &snapEntry{}
		c.entries[k] = e
	}
	return e
}

// Len returns the number of cached warmup checkpoints.
func (c *SnapshotCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a copy of the serving counters.
func (c *SnapshotCache) Stats() SnapshotCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *SnapshotCache) count(f func(*SnapshotCacheStats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// persistent reports whether the cache is backed by an on-disk store.
func (c *SnapshotCache) persistent() bool { return c != nil && c.store != nil }

// HasStored reports whether the backing store holds key. Memory-only
// caches hold nothing.
func (c *SnapshotCache) HasStored(key string) bool {
	return c.store != nil && c.store.Has(key)
}

// getEncoded returns the stored bytes for key, ok=false when absent or
// when the cache is nil or memory-only. The bytes are the encoded
// snapshot verbatim; callers decode — and must treat a decode failure
// as a miss. It is the coordinator's answer to a worker's NEEDSNAP.
func (c *SnapshotCache) getEncoded(key string) ([]byte, bool) {
	if !c.persistent() {
		return nil, false
	}
	data, err := c.store.Get(key)
	return data, err == nil
}

// putEncoded writes pre-encoded snapshot bytes through to the store
// (no-op for memory-only caches). A worker uses it to install snapshots
// pulled from the coordinator; the horizon layer uses it for mid-run
// checkpoints.
func (c *SnapshotCache) putEncoded(key string, data []byte) error {
	if c.store == nil {
		return nil
	}
	return c.store.Put(key, data)
}

// loadCheckpoint tries to serve a stored checkpoint (warmup or mid-run)
// under key. A decodable file is validated by a restore into a probe
// machine of the cell's geometry, so every later Restore from the
// returned snapshot is panic-free; any rejection deletes the file and
// reports a miss (the caller rebuilds and overwrites). The probe is
// returned alongside: it holds exactly the checkpointed state, so a
// caller may run on it instead of restoring a machine of its own, and
// for a mid-run checkpoint its Result is exactly the Result an
// independent run at that horizon would produce.
func (c *SnapshotCache) loadCheckpoint(key string, cfg Config, scheme Scheme) (*sim.Snapshot, *sim.Machine, bool) {
	if c.store == nil {
		return nil, nil, false
	}
	data, err := c.store.Get(key)
	if err != nil {
		return nil, nil, false
	}
	snap, err := sim.DecodeSnapshot(data)
	if err != nil {
		c.count(func(s *SnapshotCacheStats) { s.DiskRejects++ })
		c.store.Delete(key)
		return nil, nil, false
	}
	probe := sim.NewMachine(cfg, scheme)
	if err := probe.RestoreSafe(snap); err != nil {
		c.count(func(s *SnapshotCacheStats) { s.DiskRejects++ })
		c.store.Delete(key)
		return nil, nil, false
	}
	c.count(func(s *SnapshotCacheStats) { s.DiskHits++ })
	return snap, probe, true
}

// warmupSource reports how a cell's warmup was served.
type warmupSource int

const (
	warmupNone  warmupSource = iota // no checkpoint: uncached, or a setup that is not forkable
	warmupBuilt                     // setup simulated by this call, then checkpointed
	warmupDisk                      // loaded from the backing store
	warmupMem                       // already resident in memory
)

// ready serves one cell through the cache, set up and ready to measure.
// The call whose once.Do materializes the warmup checkpoint runs its
// cell on the machine that holds it: a builder on the machine its
// simulated Setup warmed, with w populated, exactly as an uncached cell;
// a disk load on the probe loadCheckpoint validated. Only calls that
// find the checkpoint already in memory restore a machine of their own.
// A setup that is not forkable is never checkpointed: its builder
// measures its own machine, and every later call sets up afresh.
//
// Safety: forked cells replay Setup against a Discard sink, which
// permits everything. That is behaviorally identical to the real setup
// only if the real setup never had an access denied (a denied pool read
// returns zeros and could steer subsequent setup work), so the builder
// demands zero domain and page faults during the simulated setup before
// caching.
func (c *SnapshotCache) ready(w workload.Workload, name string, p Params, scheme Scheme, cfg Config) (readyCell, warmupSource, error) {
	key := snapKey{name: name, p: warmupParams(p), scheme: scheme, sc: structuralOf(cfg)}
	e := c.entry(key)
	var (
		cell readyCell
		src  = warmupMem
		err  error
	)
	e.once.Do(func() {
		if snap, probe, ok := c.loadCheckpoint(key.diskKey(), cfg, scheme); ok {
			e.snap, cell.m, src = snap, probe, warmupDisk
			return
		}
		c.count(func(s *SnapshotCacheStats) { s.Warmups++ })
		var forkable bool
		cell, forkable, err = setUp(w, name, p, scheme, cfg)
		if err != nil || !forkable {
			src = warmupNone
			return
		}
		src = warmupBuilt
		e.snap = cell.m.Snapshot()
		if c.store != nil {
			if data, encErr := sim.EncodeSnapshot(e.snap); encErr == nil {
				// Best-effort write-through: a full disk degrades to the
				// in-memory cache, it does not fail the cell.
				_ = c.store.Put(key.diskKey(), data)
			}
		}
	})
	switch {
	case src == warmupBuilt || src == warmupNone:
		return cell, src, err // this call simulated the setup
	case e.snap == nil:
		// An earlier call found the setup not forkable.
		cell, _, err = setUp(w, name, p, scheme, cfg)
		return cell, warmupNone, err
	case src == warmupMem:
		c.count(func(s *SnapshotCacheStats) { s.MemHits++ })
		cell.m = sim.NewMachine(cfg, scheme)
		cell.m.Restore(e.snap)
	}
	cell, sw, err := fork(w, name, p, scheme, cell.m)
	if err != nil {
		return readyCell{}, warmupNone, err
	}
	sw.Sink = cell.m
	return cell, src, nil
}

// RunCached is Run with warmup snapshot reuse through cache (nil cache
// falls back to Run). The bool reports a snapshot hit: the warmup phase
// was served from a checkpoint built by an earlier cell with the same
// workload, parameters, scheme, and structural configuration.
func RunCached(name string, p Params, scheme Scheme, cfg Config, cache *SnapshotCache) (Result, bool, error) {
	return runCell(name, p, scheme, cfg, nil, cache)
}
