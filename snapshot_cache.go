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

// warmupParams normalizes p to its warmup identity: the resolved
// defaults with the ops horizon zeroed. Setup never reads P.Ops (only
// Run does), so cells differing only in run length share one warmup
// checkpoint — the premise of mid-run horizon forking.
func warmupParams(p Params) Params {
	p = p.Defaults()
	p.Ops = 0
	return p
}

// traceKey is the content address of the trace of one measured
// segment: a hash over the workload name, the resolved parameters with
// Ops, the trace format version and the workload stream version. It
// names no scheme and no Config. A cell's setup raises no fault (setUp
// fails it otherwise), and a trace is published only if its measured
// phase raised none either; so every access in it was permitted, and
// the stream is the same under every scheme and cost. One trace serves
// all the schemes of a group and every cost variant of an ablation.
func traceKey(name string, p Params) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("trace|%s|%+v|format%d|stream%d",
		name, p.Defaults(), trace.FormatVersion, workload.StreamVersion)))
	return hex.EncodeToString(h[:16])
}

// SnapshotKeyFor returns the content-addressed store key of the warmup
// checkpoint for one experiment cell: a hash over the workload, its
// parameters without the ops horizon, the scheme, the structural
// configuration, and the codec and workload stream versions, so files
// written by an incompatible codec, or by workload code that emitted
// another setup stream, never collide with current keys. A sweep worker
// derives the key of the checkpoint it needs from the cell alone.
func SnapshotKeyFor(name string, p Params, scheme Scheme, cfg Config) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("warmup|%s|%+v|%s|%+v|codec%d|stream%d",
		name, warmupParams(p), scheme, structuralOf(cfg), sim.SnapshotCodecVersion, workload.StreamVersion)))
	return hex.EncodeToString(h[:16])
}

// SnapshotCacheStats counts how warmups were served. The ci.sh
// grid-twice gate asserts Warmups == 0 for a second process running
// against a primed -snapshot-dir.
type SnapshotCacheStats struct {
	// Warmups is the number of setup phases actually simulated (the
	// store did not hold the cell's checkpoint).
	Warmups int
	// MemHits is the number of loads of a checkpoint this cache had
	// built or loaded before.
	MemHits int
	// DiskHits is the number of checkpoints this cache loaded first
	// without having built them: stored by another process, or pulled
	// from a sweep coordinator.
	DiskHits int
	// DiskRejects is the number of stored checkpoints and traces
	// rejected — truncated, checksum-failing, stale codec version, or
	// geometry-mismatched snapshots, and traces that fail their
	// checksum, cap or decode — and rebuilt.
	DiskRejects int
}

// cacheCounts is everything a SnapshotCache counts: the serving
// counters Stats returns, and the trace counters TraceStats returns.
type cacheCounts struct {
	SnapshotCacheStats
	replayed, recorded int
}

// blobStore is where a SnapshotCache keeps its bytes under content
// addresses: encoded checkpoints in one, sealed traces in another. A
// cache on a directory uses a *snapstore.Store and its Traces view, a
// cache in memory two memStores. Nobody modifies a slice once it has
// been Put or returned by Get.
type blobStore interface {
	Has(key string) bool
	Get(key string) ([]byte, error)
	Put(key string, data []byte) error
	Delete(key string) error
}

// memStore is a blobStore in memory. Each key is written once per
// build and read by every later cell, the access pattern sync.Map is
// made for.
type memStore struct{ m sync.Map }

func (s *memStore) Has(key string) bool {
	_, ok := s.m.Load(key)
	return ok
}

func (s *memStore) Get(key string) ([]byte, error) {
	if data, ok := s.m.Load(key); ok {
		return data.([]byte), nil
	}
	return nil, snapstore.ErrMiss
}

func (s *memStore) Put(key string, data []byte) error { s.m.Store(key, data); return nil }

func (s *memStore) Delete(key string) error { s.m.Delete(key); return nil }

// SnapshotCache shares warmup state across experiment cells: the first
// cell with a given (workload, params, scheme, structural-config) key
// simulates the setup phase once and checkpoints the machine after
// ResetStats; every later cell starts from that checkpoint instead of
// re-simulating the warmup. Results are bit-identical to the uncached
// path. The cache is safe for concurrent use by a grid's worker pool and
// is meant to live across grids (Table VI and Table VII share warmups,
// as do the rows of a cost-parameter ablation).
//
// The cache keeps bytes only: encoded checkpoints, and one sealed trace
// of each (workload, params) measured segment. NewSnapshotCache keeps
// them in memory; NewSnapshotCacheDir keeps them in an
// internal/snapstore directory, so they survive across processes and
// across the workers of a distributed sweep sharing one directory.
// Either way a cell that did not build its checkpoint decodes and
// restores it into a machine of its own, and a cell on a checkpoint
// replays the stored trace of its measured segment instead of running
// the workload's Go code, or, when the store has none yet, runs live
// and records it (see ready).
type SnapshotCache struct {
	snaps, traces blobStore
	// entries maps each warmup key served to the *sync.Once under which
	// its first call builds or loads the checkpoint.
	entries sync.Map
	// held is the set of checkpoint keys this cache has stored or
	// loaded: a later load of one is a memory hit.
	held sync.Map

	mu    sync.Mutex
	stats cacheCounts
	// decoded maps a trace key to the CRC-32C of the bytes this cache
	// wrote or decoded whole under it, so each trace is decode-checked
	// once per cache rather than once per cell.
	decoded map[string]uint32
}

// NewSnapshotCache returns an empty warmup snapshot cache that keeps
// its checkpoints and traces in memory.
func NewSnapshotCache() *SnapshotCache {
	return &SnapshotCache{snaps: new(memStore), traces: new(memStore), decoded: make(map[string]uint32)}
}

// NewSnapshotCacheDir returns a warmup snapshot cache persisted under
// dir (created if needed).
func NewSnapshotCacheDir(dir string) (*SnapshotCache, error) {
	st, err := snapstore.Open(dir)
	if err != nil {
		return nil, err
	}
	return &SnapshotCache{snaps: st, traces: st.Traces(), decoded: make(map[string]uint32)}, nil
}

// Len returns the number of warmup keys the cache has served.
func (c *SnapshotCache) Len() (n int) {
	c.entries.Range(func(any, any) bool { n++; return true })
	return n
}

// Stats returns a copy of the serving counters.
func (c *SnapshotCache) Stats() SnapshotCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats.SnapshotCacheStats
}

// TraceStats reports how many cells this cache measured by replaying a
// stored trace, and how many traces it recorded and stored.
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

// HasStored reports whether the cache's store holds the checkpoint
// under key.
func (c *SnapshotCache) HasStored(key string) bool {
	return c.snaps.Has(key)
}

// getEncoded returns the checkpoint bytes stored under key, ok=false
// when absent or when the cache is nil. It is the coordinator's answer
// to a worker's NEEDSNAP; the worker validates what it gets when it
// loads it.
func (c *SnapshotCache) getEncoded(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	data, err := c.snaps.Get(key)
	return data, err == nil
}

// keep encodes m's state and stores it under key as a checkpoint this
// cache built, so that its later loads count as memory hits. Like every
// write-through it is best-effort: a checkpoint the store does not take
// is rebuilt by the next call that needs it.
func (c *SnapshotCache) keep(key string, m *sim.Machine) {
	data, err := sim.EncodeSnapshot(m.Snapshot())
	if err != nil || c.snaps.Put(key, data) != nil {
		return
	}
	c.held.Store(key, true)
}

// loadCheckpoint restores the checkpoint (warmup or mid-run) stored
// under key into a fresh machine of the cell's geometry. RestoreSafe
// validates it, so the machine is safe to run on, and for a mid-run
// checkpoint its Result is exactly the Result an independent run at
// that horizon would produce. Bytes that fail to decode or restore are
// deleted and counted in DiskRejects; every failure reports a miss, and
// the caller rebuilds. A load is a DiskHit the first time the cache
// loads a key it did not build, and a MemHit after that.
func (c *SnapshotCache) loadCheckpoint(key string, cfg Config, scheme Scheme) (*sim.Machine, bool) {
	data, err := c.snaps.Get(key)
	if err != nil {
		return nil, false
	}
	m := sim.NewMachine(cfg, scheme)
	snap, err := sim.DecodeSnapshot(data)
	if err == nil {
		err = m.RestoreSafe(snap)
	}
	if err != nil {
		c.count(func(s *cacheCounts) { s.DiskRejects++ })
		c.snaps.Delete(key)
		return nil, false
	}
	_, again := c.held.LoadOrStore(key, true)
	c.count(func(s *cacheCounts) {
		if again {
			s.MemHits++
		} else {
			s.DiskHits++
		}
	})
	return m, true
}

// maxTraceBytes caps a stored trace's encoded size. A recording that
// passes it is dropped, and its cells measure live. A cell reads and
// verifies its trace whole, so the cap also bounds the memory a
// replaying cell holds.
const maxTraceBytes = 32 << 20

// castagnoli is the table of the CRC-32C that seals a stored trace.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// loadTrace returns the stored trace under key, verified by
// verifyTrace. A trace that fails is deleted and counted in
// DiskRejects; the caller then measures live and records it again.
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
// bytes, and either store's Put is atomic, so the race is harmless.
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

// ready serves one cell through the cache, set up and ready to measure,
// and reports whether it was a hit: served from a checkpoint it did not
// build. Each call first loads the checkpoint from the store into a
// machine of its own (see loadCheckpoint). A call that finds none
// builds it: it simulates the setup, stores the checkpoint, and goes on
// from the machine its Setup warmed with w populated, exactly as an
// uncached cell. The first call of a key does this under the key's
// Once, so concurrent calls wait for one build instead of racing to
// make their own; a later call rebuilds only if the checkpoint has
// vanished from the store. A setup that raises a fault fails the cell
// and stores nothing.
//
// On a checkpoint, a traced call then looks for the trace of the cell's
// measured segment. If the store holds a valid one, the cell replays
// it: no fork, and a builder drops the Go-side state its Setup built.
// Otherwise the cell measures live — a builder on its own machine, any
// other call after a fork — through a Tee that records the trace for
// every later cell of the same (workload, params). No call waits on
// another's recording: rivals record the same bytes.
//
// Safety: a forked cell replays Setup against Discard, which permits
// everything. That is behaviorally identical to the real setup only if
// the real setup never had an access denied (a denied pool read returns
// zeros and could steer subsequent setup work); setUp guarantees it for
// every stored checkpoint by failing a setup that faults.
func (c *SnapshotCache) ready(w workload.Workload, name string, p Params, scheme Scheme, cfg Config, traced bool) (readyCell, bool, error) {
	key := SnapshotKeyFor(name, p, scheme, cfg)
	var (
		cell  readyCell
		built bool
		err   error
	)
	serve := func() {
		if m, ok := c.loadCheckpoint(key, cfg, scheme); ok {
			cell.m = m
			return
		}
		c.count(func(s *cacheCounts) { s.Warmups++ })
		built = true
		if cell, err = setUp(w, name, p, scheme, cfg); err == nil {
			c.keep(key, cell.m)
		}
	}
	first := false
	once, _ := c.entries.LoadOrStore(key, new(sync.Once))
	once.(*sync.Once).Do(func() { first = true; serve() })
	if !first {
		serve()
	}
	if err != nil {
		return readyCell{}, false, err
	}
	tkey := ""
	if traced {
		tkey = traceKey(name, p)
		if tr, ok := c.loadTrace(tkey); ok {
			c.count(func(s *cacheCounts) { s.replayed++ })
			return readyCell{m: cell.m, replay: tr}, !built, nil
		}
	}
	if !built {
		if cell, err = fork(w, name, p, scheme, cell.m); err != nil {
			return readyCell{}, false, err
		}
	}
	cell.sw.Sink = cell.m
	if tkey != "" {
		cell.record = c.newRecording(tkey)
		cell.sw.Sink = trace.NewTee(cell.m, cell.record.w)
	}
	return cell, !built, nil
}

// RunCached is Run with warmup snapshot reuse through cache (nil cache
// falls back to Run). The bool reports a snapshot hit: the warmup phase
// was served from a checkpoint built by an earlier cell with the same
// workload, parameters, scheme, and structural configuration.
func RunCached(name string, p Params, scheme Scheme, cfg Config, cache *SnapshotCache) (Result, bool, error) {
	return runCell(name, p, scheme, cfg, nil, cache)
}
