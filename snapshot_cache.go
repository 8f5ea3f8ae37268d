package domainvirt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"domainvirt/internal/core"
	"domainvirt/internal/memlayout"
	"domainvirt/internal/obs"
	"domainvirt/internal/sim"
	"domainvirt/internal/snapstore"
	"domainvirt/internal/tlb"
	"domainvirt/internal/trace"
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

type snapEntry struct {
	once sync.Once
	snap *sim.Snapshot
	ok   bool
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

// Persistent reports whether the cache is backed by an on-disk store.
func (c *SnapshotCache) Persistent() bool { return c.store != nil }

// HasStored reports whether the backing store holds key. Memory-only
// caches hold nothing.
func (c *SnapshotCache) HasStored(key string) bool {
	return c.store != nil && c.store.Has(key)
}

// GetEncoded returns the stored bytes for key (snapstore.ErrMiss when
// absent or when the cache is memory-only). The bytes are the encoded
// snapshot verbatim; callers decode — and must treat a decode failure as
// a miss.
func (c *SnapshotCache) GetEncoded(key string) ([]byte, error) {
	if c.store == nil {
		return nil, fmt.Errorf("%w: no store", snapstore.ErrMiss)
	}
	return c.store.Get(key)
}

// PutEncoded writes pre-encoded snapshot bytes through to the store
// (no-op for memory-only caches). The sweep tier uses it to install
// snapshots pulled from the coordinator; the horizon layer uses it for
// mid-run checkpoints.
func (c *SnapshotCache) PutEncoded(key string, data []byte) error {
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

// sinkSwitch delegates the trace.Sink interface to a swappable inner
// sink. A forked cell rebuilds its Go-side workload state (pools, data
// structures, attachments) by running Setup against Discard — no
// simulation — then swaps the restored machine in for the measured Run.
type sinkSwitch struct{ inner trace.Sink }

func (s *sinkSwitch) Instr(th ThreadID, n uint64) { s.inner.Instr(th, n) }
func (s *sinkSwitch) Access(th ThreadID, va VA, size uint32, write bool) bool {
	return s.inner.Access(th, va, size, write)
}
func (s *sinkSwitch) Fetch(th ThreadID, va VA) bool { return s.inner.Fetch(th, va) }
func (s *sinkSwitch) SetPerm(th ThreadID, d DomainID, p Perm, site core.SiteID) {
	s.inner.SetPerm(th, d, p, site)
}
func (s *sinkSwitch) Attach(d DomainID, r memlayout.Region, perm Perm) error {
	return s.inner.Attach(d, r, perm)
}
func (s *sinkSwitch) Detach(d DomainID) { s.inner.Detach(d) }
func (s *sinkSwitch) Fence(th ThreadID) { s.inner.Fence(th) }

// warmupSource reports how a warmup checkpoint was served.
type warmupSource int

const (
	warmupBuilt warmupSource = iota // setup simulated by this call
	warmupDisk                      // loaded from the backing store
	warmupMem                       // already resident in memory
)

// warmed is how one call was served its warmup checkpoint. A nil snap
// means the cell's setup is not forkable — the workload errored or its
// setup raised faults — and the caller must fall back to the uncached
// path. cell is what the call that materialized the checkpoint holds
// of it: the builder's machine together with the workload its simulated
// Setup populated, or the probe machine a disk load restored (cell.w is
// nil: the Go-side state is still to be rebuilt). A memory hit gets a
// zero cell and forks.
type warmed struct {
	snap *sim.Snapshot
	src  warmupSource
	cell readyCell
}

// warmup serves (building if needed) the warmup checkpoint for one cell.
//
// Safety: forked cells replay Setup against a Discard sink, which
// permits everything. That is behaviorally identical to the real setup
// only if the real setup never had an access denied (a denied pool read
// returns zeros and could steer subsequent setup work), so the builder
// demands zero domain and page faults during the simulated setup before
// caching.
func (c *SnapshotCache) warmup(name string, p Params, scheme Scheme, cfg Config) warmed {
	key := snapKey{name: name, p: warmupParams(p), scheme: scheme, sc: structuralOf(cfg)}
	e := c.entry(key)
	wu := warmed{src: warmupMem}
	e.once.Do(func() {
		if snap, probe, ok := c.loadCheckpoint(key.diskKey(), cfg, scheme); ok {
			wu.src = warmupDisk
			wu.cell.m = probe
			e.snap = snap
			e.ok = true
			return
		}
		wu.src = warmupBuilt
		c.count(func(s *SnapshotCacheStats) { s.Warmups++ })
		bw, err := workload.New(name)
		if err != nil {
			return
		}
		m := sim.NewMachine(cfg, scheme)
		env := workload.NewEnv(m, p)
		if err := bw.Setup(env); err != nil {
			return
		}
		if r := m.Result(); r.Counters.DomainFaults > 0 || r.Counters.PageFaults > 0 {
			return // setup depends on verdicts; not safely forkable
		}
		m.ResetStats()
		e.snap = m.Snapshot()
		e.ok = true
		wu.cell = readyCell{m: m, w: bw, env: env}
		if c.store != nil {
			if data, encErr := sim.EncodeSnapshot(e.snap); encErr == nil {
				// Best-effort write-through: a full disk degrades to the
				// in-memory cache, it does not fail the cell.
				_ = c.store.Put(key.diskKey(), data)
			}
		}
	})
	if !e.ok {
		return wu
	}
	if wu.src == warmupMem {
		c.count(func(s *SnapshotCacheStats) { s.MemHits++ })
	}
	wu.snap = e.snap
	return wu
}

// runCachedMachine is runMachine with warmup snapshot reuse. The second
// return value reports whether the cell was served from a cached
// checkpoint (false for the cell that built it, and for fallbacks).
//
// The call that materializes a checkpoint runs its cell on that
// machine: the builder on the machine its simulated Setup warmed, with
// the same workload, exactly as runMachine does; a disk load on the
// probe loadCheckpoint validated. Only cells that find the checkpoint
// already in memory restore a machine of their own.
func runCachedMachine(name string, p Params, scheme Scheme, cfg Config, rec *obs.Recorder, cache *SnapshotCache) (Result, bool, error) {
	if cache == nil {
		res, err := runMachine(name, p, scheme, cfg, rec)
		return res, false, err
	}
	w, err := workload.New(name)
	if err != nil {
		return Result{}, false, err
	}
	wu := cache.warmup(name, p, scheme, cfg)
	if wu.snap == nil {
		res, err := runMachine(name, p, scheme, cfg, rec)
		return res, false, err
	}
	cell := wu.cell
	if cell.w == nil {
		// Fork: rebuild Go-side workload state without simulation, then
		// run the measured phase on the machine holding the checkpoint.
		sw := &sinkSwitch{inner: trace.Discard{}}
		env := workload.NewEnv(sw, p)
		if err := w.Setup(env); err != nil {
			return Result{}, false, fmt.Errorf("domainvirt: %s setup under %s: %w", name, scheme, err)
		}
		if cell.m == nil {
			cell.m = sim.NewMachine(cfg, scheme)
			cell.m.Restore(wu.snap)
		}
		sw.inner = cell.m
		cell.w, cell.env = w, env
	}
	res, err := cell.measure(name, scheme, cfg, rec)
	return res, wu.src != warmupBuilt, err
}

// RunCached is Run with warmup snapshot reuse through cache (nil cache
// falls back to Run). The bool reports a snapshot hit: the warmup phase
// was served from a checkpoint built by an earlier cell with the same
// workload, parameters, scheme, and structural configuration.
func RunCached(name string, p Params, scheme Scheme, cfg Config, cache *SnapshotCache) (Result, bool, error) {
	return runCachedMachine(name, p, scheme, cfg, nil, cache)
}

// RunObservedCached is RunObserved with warmup snapshot reuse. The
// recorder observes the measured phase only, exactly as in RunObserved;
// exports are byte-identical to the uncached path.
func RunObservedCached(name string, p Params, scheme Scheme, cfg Config, o ObsOptions, cache *SnapshotCache) (Result, *Recorder, bool, error) {
	rec := obs.NewRecorder(o)
	res, hit, err := runCachedMachine(name, p, scheme, cfg, rec, cache)
	return res, rec, hit, err
}
