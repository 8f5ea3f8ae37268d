package domainvirt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"sync"

	"domainvirt/internal/memlayout"
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
// and workload stream versions, so files written by an incompatible
// codec, or by workload code that emitted another setup stream, can
// never collide with current keys (the decoder's version check still
// guards files tampered in place).
func (k snapKey) diskKey() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("warmup|%s|%+v|%s|%+v|codec%d|stream%d",
		k.name, k.p, k.scheme, k.sc, sim.SnapshotCodecVersion, workload.StreamVersion)))
	return hex.EncodeToString(h[:16])
}

// traceKey is the content address of the trace of one measured
// segment: a hash over the workload name, the resolved parameters with
// Ops, the trace format version and the workload stream version. It
// names no scheme and no Config. A cell is served from a checkpoint
// only if its setup raised no fault, and a trace is published only if
// its measured phase raised none either; so every access in it was
// permitted, and the stream is the same under every scheme and cost.
// One trace serves all the schemes of a group and every cost variant
// of an ablation.
func traceKey(name string, p Params) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("trace|%s|%+v|format%d|stream%d",
		name, p.Defaults(), trace.FormatVersion, workload.StreamVersion)))
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
	// checksum-failing, stale codec version, or geometry-mismatched
	// snapshots, and traces that fail their checksum, cap or decode —
	// and rebuilt.
	DiskRejects int
}

// cacheCounts is everything a SnapshotCache counts: the serving
// counters Stats returns, and the trace counters TraceStats returns.
type cacheCounts struct {
	SnapshotCacheStats
	replayed, recorded int
}

// SnapshotCache shares warmup state across experiment cells: the first
// cell with a given (workload, params, scheme, structural-config) key
// simulates the setup phase once and checkpoints the machine after
// ResetStats; every later cell starts from that checkpoint instead of
// re-simulating the warmup. Results are bit-identical to the uncached
// path. The cache is safe for concurrent use by a grid's worker pool and
// is meant to live across grids (Table VI and Table VII share warmups,
// as do the rows of a cost-parameter ablation).
// When built with NewSnapshotCacheDir, the cache is additionally backed
// by an internal/snapstore directory: checkpoints built in this process
// are encoded and written through, and a cold in-memory entry first
// tries the store — so warmups survive across processes and across the
// workers of a distributed sweep sharing one directory. The store also
// keeps one trace of each (workload, params) measured segment: a cell
// on a checkpoint replays it instead of running the workload's Go code,
// or, when the store has none yet, runs live and records it (see
// ready). A memory-only cache keeps no traces, so its later cells fork
// from the checkpoint and run live.
type SnapshotCache struct {
	mu      sync.Mutex
	entries map[snapKey]*snapEntry
	store   *snapstore.Store
	traces  *snapstore.Store
	stats   cacheCounts
	// decoded maps a trace key to the CRC-32C of the bytes this cache
	// wrote or decoded whole under it, so each trace is decode-checked
	// once per cache rather than once per cell.
	decoded map[string]uint32
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
	return &SnapshotCache{entries: make(map[snapKey]*snapEntry), store: st, traces: st.Traces(),
		decoded: make(map[string]uint32)}, nil
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
	return c.stats.SnapshotCacheStats
}

// TraceStats reports how many cells this cache measured by replaying a
// stored trace, and how many traces it recorded and wrote to the
// store. Both stay zero for a memory-only cache.
func (c *SnapshotCache) TraceStats() (replayed, recorded int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats.replayed, c.stats.recorded
}

func (c *SnapshotCache) count(f func(*cacheCounts)) {
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
		c.count(func(s *cacheCounts) { s.DiskRejects++ })
		c.store.Delete(key)
		return nil, nil, false
	}
	probe := sim.NewMachine(cfg, scheme)
	if err := probe.RestoreSafe(snap); err != nil {
		c.count(func(s *cacheCounts) { s.DiskRejects++ })
		c.store.Delete(key)
		return nil, nil, false
	}
	c.count(func(s *cacheCounts) { s.DiskHits++ })
	return snap, probe, true
}

// maxTraceBytes caps a stored trace's encoded size. A recording that
// passes it is dropped, and its cells measure live. A cell reads and
// verifies its trace whole, so the cap also bounds the memory a
// replaying cell holds.
const maxTraceBytes = 32 << 20

// castagnoli is the table of the CRC-32C that seals a stored trace.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// loadTrace returns the stored trace under key, verified by
// verifyTrace. A file that fails is deleted and counted in DiskRejects;
// the caller then measures live and records the trace again.
func (c *SnapshotCache) loadTrace(key string) ([]byte, bool) {
	data, err := c.traces.Get(key)
	if err != nil {
		return nil, false
	}
	body, ok := c.verifyTrace(key, data)
	if !ok {
		c.count(func(s *cacheCounts) { s.DiskRejects++ })
		c.traces.Delete(key)
	}
	return body, ok
}

// verifyTrace checks a stored trace whole and returns the trace file it
// seals: its size against the cap, its CRC-32C trailer, and a decode of
// every event, so its replay into a machine cannot stop at a bad byte.
// The decode is made once per cache for the same bytes.
func (c *SnapshotCache) verifyTrace(key string, data []byte) ([]byte, bool) {
	n := len(data) - crc32.Size
	if n < 0 || n > maxTraceBytes {
		return nil, false
	}
	body, sum := data[:n], binary.LittleEndian.Uint32(data[n:])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, false
	}
	c.mu.Lock()
	known, ok := c.decoded[key]
	c.mu.Unlock()
	if !ok || known != sum {
		if _, err := trace.Replay(bytes.NewReader(body), trace.Discard{}); err != nil {
			return nil, false
		}
		c.markDecoded(key, sum)
	}
	return body, true
}

// markDecoded records that the trace under key with CRC-32C sum was
// written or decoded whole by this cache.
func (c *SnapshotCache) markDecoded(key string, sum uint32) {
	c.mu.Lock()
	c.decoded[key] = sum
	c.mu.Unlock()
}

// traceRecording is a live measured phase being recorded as the trace
// stored under key. Its buffer drops every byte past maxTraceBytes
// instead of failing: Tee.Attach hands the workload the writer's
// sticky write error, and recording must never fail or change the cell
// it rides on.
type traceRecording struct {
	cache *SnapshotCache
	key   string
	w     *trace.Writer
	buf   []byte
	over  bool
}

func (c *SnapshotCache) newRecording(key string) *traceRecording {
	r := &traceRecording{cache: c, key: key}
	r.w, _ = trace.NewWriter(r) // NewWriter cannot fail
	return r
}

// Write implements io.Writer for r.w, dropping what passes the cap.
func (r *traceRecording) Write(b []byte) (int, error) {
	if len(r.buf)+len(b) > maxTraceBytes {
		r.over = true
	}
	if !r.over {
		r.buf = append(r.buf, b...)
	}
	return len(b), nil
}

// publish ends a recording whose cell raised no fault, seals it with
// its CRC-32C and writes it through. A recording past the cap is
// dropped; a failed write is harmless, like the checkpoint
// write-through. Cells recording the same key at once write identical
// bytes, and the store's atomic rename makes the race harmless.
func (r *traceRecording) publish() {
	if r.w.Close() != nil || r.over {
		return
	}
	sum := crc32.Checksum(r.buf, castagnoli)
	if r.cache.traces.Put(r.key, binary.LittleEndian.AppendUint32(r.buf, sum)) == nil {
		r.cache.markDecoded(r.key, sum)
		r.cache.count(func(s *cacheCounts) { s.recorded++ })
	}
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
// The call whose once.Do materializes the warmup checkpoint starts its
// cell on the machine that holds it: a builder on the machine its
// simulated Setup warmed, with w populated, exactly as an uncached cell;
// a disk load on the probe loadCheckpoint validated. Only calls that
// find the checkpoint already in memory restore a machine of their own.
// A setup that is not forkable is never checkpointed: its builder
// measures its own machine, and every later call sets up afresh.
//
// On a checkpoint, a traced call to a persistent cache then looks for
// the trace of the cell's measured segment. If the store holds a valid
// one, the cell replays it: no fork, and a builder drops the Go-side
// state its Setup built. Otherwise the cell measures live — a builder
// on its own machine, any other call after a fork — through a Tee that
// records the trace for every later cell of the same (workload,
// params). No call waits on another's recording: rivals record the
// same bytes.
//
// Safety: forked cells replay Setup against a Discard sink, which
// permits everything. That is behaviorally identical to the real setup
// only if the real setup never had an access denied (a denied pool read
// returns zeros and could steer subsequent setup work), so the builder
// demands zero domain and page faults during the simulated setup before
// caching.
func (c *SnapshotCache) ready(w workload.Workload, name string, p Params, scheme Scheme, cfg Config, traced bool) (readyCell, warmupSource, error) {
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
		c.count(func(s *cacheCounts) { s.Warmups++ })
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
	case src == warmupNone:
		return cell, src, err // this call simulated a setup that is not forkable
	case e.snap == nil:
		// An earlier call found the setup not forkable.
		cell, _, err = setUp(w, name, p, scheme, cfg)
		return cell, warmupNone, err
	case src == warmupMem:
		c.count(func(s *cacheCounts) { s.MemHits++ })
		cell.m = sim.NewMachine(cfg, scheme)
		cell.m.Restore(e.snap)
	}
	tkey := ""
	if traced && c.store != nil {
		tkey = traceKey(name, p)
		if tr, ok := c.loadTrace(tkey); ok {
			c.count(func(s *cacheCounts) { s.replayed++ })
			return readyCell{m: cell.m, replay: tr}, src, nil
		}
	}
	if src != warmupBuilt {
		if cell, err = fork(w, name, p, scheme, cell.m); err != nil {
			return readyCell{}, warmupNone, err
		}
	}
	cell.sw.Sink = cell.m
	if tkey != "" {
		cell.record = c.newRecording(tkey)
		cell.sw.Sink = trace.NewTee(cell.m, cell.record.w)
	}
	return cell, src, nil
}

// RunCached is Run with warmup snapshot reuse through cache (nil cache
// falls back to Run). The bool reports a snapshot hit: the warmup phase
// was served from a checkpoint built by an earlier cell with the same
// workload, parameters, scheme, and structural configuration.
func RunCached(name string, p Params, scheme Scheme, cfg Config, cache *SnapshotCache) (Result, bool, error) {
	return runCell(name, p, scheme, cfg, nil, cache)
}
