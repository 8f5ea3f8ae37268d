package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"domainvirt/internal/obs"
	"domainvirt/internal/reqtrace"
)

// LoadOptions configures a load run against a pmod daemon or a
// pmorouter front end: Clients independent connections issuing a
// ReadFraction/write mix until Duration elapses.
//
// The zero value of the cluster knobs reproduces the original
// single-node behavior: each client owns one private pool and runs
// closed-loop scalar requests. Pools > 0 switches to a shared keyspace
// (the cluster shape): sessions pick a pool by Zipf-skewed draw, the
// client identity is the pool name (so the store's owner-only namespace
// admits every writer of that pool), and exclusive-writer ATTACH
// conflicts are counted and re-picked rather than failed.
type LoadOptions struct {
	Addr         string
	Clients      int
	Duration     time.Duration
	ReadFraction float64 // of ops, [0,1]
	TxFraction   float64 // of writes issued as TX_COMMIT, [0,1]
	ValueSize    int     // bytes per write / read span
	PoolSize     uint64  // session pool size
	// Seed derives every client's plan RNG. Two runs with equal options
	// and Seed draw identical op sequences (offsets, mixes, pool picks,
	// churn points, arrival spacing); only scheduling jitter differs.
	Seed int64
	// FetchTrace drains the daemon's retained request spans (TRACE op)
	// after the run and aggregates them into LoadReport.Trace, giving
	// the client-side summary its queue-wait vs service-time
	// attribution. Requires the daemon to run with tracing enabled;
	// silently skipped otherwise.
	FetchTrace bool

	// Pools > 0 sizes the shared pool keyspace (cluster mode).
	Pools int
	// ZipfS skews pool popularity: s > 1 draws from a Zipf(s)
	// distribution (hot keys), anything else is uniform. Ignored unless
	// Pools > 0.
	ZipfS float64
	// Churn is the per-iteration probability that a client CLOSEs its
	// session and opens a new one (new pool pick in cluster mode) —
	// the arrive/depart behavior that exercises session re-routing.
	Churn float64
	// Rate > 0 switches to open-loop arrivals at this aggregate ops/sec
	// target, exponentially spaced per client (Poisson). Latency is then
	// measured from the scheduled arrival, so queueing delay under
	// overload is visible instead of hidden by coordinated omission.
	Rate float64
	// Batch > 1 pipelines that many ops per v2 BATCH frame — one
	// network round trip per Batch ops. Requires a v2 peer.
	Batch int
	// IOTimeout bounds each round trip's socket I/O (Client.SetTimeout);
	// 0 = block forever.
	IOTimeout time.Duration
	// TolerateUnavailable counts typed UNAVAILABLE/DRAINING answers
	// (a cluster backend down or shutting down) instead of failing the
	// client, re-picking a session after backoff. This is what lets a
	// kill-a-node drill assert "zero errors" while a node is away.
	TolerateUnavailable bool

	// NodeNames plus NodeOf attribute per-op results to cluster nodes:
	// NodeOf maps a pool name to an index into NodeNames (the router's
	// placement function). Leave nil for a single-node run.
	NodeNames []string
	NodeOf    func(pool string) int
}

func (o *LoadOptions) withDefaults() LoadOptions {
	v := *o
	if v.Clients <= 0 {
		v.Clients = 50
	}
	if v.Duration <= 0 {
		v.Duration = 2 * time.Second
	}
	if v.ReadFraction < 0 || v.ReadFraction > 1 {
		v.ReadFraction = 0.7
	}
	if v.TxFraction < 0 || v.TxFraction > 1 {
		v.TxFraction = 0.1
	}
	if v.ValueSize <= 0 {
		v.ValueSize = 128
	}
	if v.PoolSize == 0 {
		v.PoolSize = 1 << 20
	}
	if v.Batch < 1 {
		v.Batch = 1
	}
	if v.Batch > MaxBatch {
		v.Batch = MaxBatch
	}
	if v.NodeOf == nil {
		v.NodeNames = nil
	}
	return v
}

// NodeLoad is one cluster node's share of a load run, attributed by
// pool placement.
type NodeLoad struct {
	Name        string
	Ops         uint64
	Errors      uint64
	Unavailable uint64
	Latency     obs.Histogram
}

// LoadReport is the outcome of one load run. Latency reuses the obs
// layer's mergeable log2 histogram (nanoseconds), so percentiles come
// from the same machinery as the simulator's cycle histograms.
type LoadReport struct {
	Clients   int
	Elapsed   time.Duration
	Ops       uint64
	Reads     uint64
	Writes    uint64
	Txs       uint64
	Batches   uint64 // BATCH frames sent (Batch > 1)
	Retries   uint64 // RETRY backpressure responses absorbed
	Evicted   uint64 // sessions re-opened after idle eviction
	Churns    uint64 // voluntary session close/re-open cycles
	Conflicts uint64 // exclusive-writer ATTACH conflicts re-picked
	// Unavailable counts typed UNAVAILABLE/DRAINING answers absorbed
	// under TolerateUnavailable (a cluster backend down mid-run).
	Unavailable uint64
	Errors      uint64 // protocol or transport errors (excluding retries)
	FirstErr    string
	// IsolationViolations counts reads whose bytes belong to another
	// pool's write pattern — any nonzero value means the server (or the
	// router) mixed sessions.
	IsolationViolations uint64
	Latency             obs.Histogram
	// PerNode breaks the run down by owning cluster node (nil unless
	// NodeNames/NodeOf were set).
	PerNode []NodeLoad
	// Trace is the daemon-side stage breakdown aggregated from the
	// retained request spans (nil unless FetchTrace was set and the
	// daemon traced the run).
	Trace *reqtrace.Breakdown
}

// Throughput returns completed ops/second.
func (r *LoadReport) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// clientPattern is the byte every write of private pool i carries;
// reads must only ever observe zero (never-written) or the session's
// own pattern.
func clientPattern(i int) byte { return byte(0x11 + i%229) }

// poolPattern is clientPattern keyed by shared-pool index: concurrent
// writers of one pool agree on the byte, so only cross-pool leakage
// trips the isolation check.
func poolPattern(k int) byte { return byte(0x11 + k%229) }

// PoolName renders shared-pool index k's canonical name — also the
// client identity its sessions HELLO with, which is what makes the
// owner-only pool namespace admit every session of that pool.
func PoolName(k int) string { return fmt.Sprintf("pool-%05d", k) }

// RunLoad drives a daemon (or router) with Clients concurrent
// connections and aggregates their counts and latency histograms.
func RunLoad(opts LoadOptions) (*LoadReport, error) {
	o := opts.withDefaults()
	rep := &LoadReport{Clients: o.Clients}
	for _, n := range o.NodeNames {
		rep.PerNode = append(rep.PerNode, NodeLoad{Name: n})
	}
	var (
		mu       sync.Mutex
		firstErr atomic.Value
		wg       sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(o.Duration)
	for i := 0; i < o.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			local, err := runClient(i, o, deadline)
			if err != nil && firstErr.Load() == nil {
				firstErr.Store(err.Error())
			}
			mu.Lock()
			rep.Ops += local.Ops
			rep.Reads += local.Reads
			rep.Writes += local.Writes
			rep.Txs += local.Txs
			rep.Batches += local.Batches
			rep.Retries += local.Retries
			rep.Evicted += local.Evicted
			rep.Churns += local.Churns
			rep.Conflicts += local.Conflicts
			rep.Unavailable += local.Unavailable
			rep.Errors += local.Errors
			rep.IsolationViolations += local.IsolationViolations
			rep.Latency.Merge(&local.Latency)
			for n := range local.PerNode {
				dst := &rep.PerNode[n]
				src := &local.PerNode[n]
				dst.Ops += src.Ops
				dst.Errors += src.Errors
				dst.Unavailable += src.Unavailable
				dst.Latency.Merge(&src.Latency)
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	if msg, ok := firstErr.Load().(string); ok {
		rep.FirstErr = msg
	}
	if o.FetchTrace {
		rep.Trace = FetchTraceBreakdown(o.Addr)
	}
	return rep, nil
}

// FetchTraceBreakdown drains the daemon's retained spans over one extra
// connection and aggregates them; nil when the daemon has tracing
// disabled, is unreachable, or retained nothing.
func FetchTraceBreakdown(addr string) *reqtrace.Breakdown {
	cl, err := Dial(addr)
	if err != nil {
		return nil
	}
	defer cl.Close()
	raw, err := cl.Trace()
	if err != nil || len(raw) == 0 {
		return nil
	}
	recs, err := reqtrace.ParseSpansJSONL(bytes.NewReader(raw))
	if err != nil || len(recs) == 0 {
		return nil
	}
	return reqtrace.Aggregate(recs)
}

// loadClient is one load connection's state: its deterministic plan
// RNG, its current session, and its local tallies.
type loadClient struct {
	i        int
	o        *LoadOptions
	deadline time.Time
	cl       *Client
	local    *LoadReport

	// plan drives every load-shaping decision (pool picks, op mix,
	// offsets, churn, arrival spacing) so a Seed replays the same plan;
	// jitter drives only backoff sleeps, which must not perturb it.
	plan   *rand.Rand
	jitter *rand.Rand
	zipf   *rand.Zipf

	pool    string
	node    int // index into o.NodeNames, or -1
	pat     byte
	value   []byte
	span    uint64
	holding bool // a session is (believed) open

	// open-loop arrival schedule
	interval time.Duration
	next     time.Time

	// batch-mode scratch, reused across iterations
	reqs  []*Request
	resps []Response
	txw   []TxWrite
}

// errLoadDeadline ends a client quietly when setup retries run past the
// run deadline.
var errLoadDeadline = errors.New("serve: load deadline reached")

// runClient is one load connection: dial, establish a session, then a
// randomized op mix until the deadline. Retries back off; idle
// evictions and (under TolerateUnavailable) node outages re-establish
// the session transparently.
func runClient(i int, o LoadOptions, deadline time.Time) (*LoadReport, error) {
	c := &loadClient{
		i:        i,
		o:        &o,
		deadline: deadline,
		local:    &LoadReport{},
		plan:     rand.New(rand.NewSource(o.Seed + int64(i)*7919)),
		jitter:   rand.New(rand.NewSource(o.Seed ^ 0x5deece66d ^ int64(i)<<17)),
		node:     -1,
		value:    make([]byte, o.ValueSize),
	}
	for n := range o.NodeNames {
		c.local.PerNode = append(c.local.PerNode, NodeLoad{Name: o.NodeNames[n]})
	}
	if o.Pools > 0 && o.ZipfS > 1 {
		c.zipf = rand.NewZipf(c.plan, o.ZipfS, 1, uint64(o.Pools-1))
	}
	// Keep clear of the pool header + redo-log area.
	const dataBase = 256 << 10
	if o.PoolSize <= dataBase+uint64(o.ValueSize) {
		c.local.Errors++
		return c.local, fmt.Errorf("serve: pool size %d leaves no data span", o.PoolSize)
	}
	c.span = o.PoolSize - dataBase - uint64(o.ValueSize)

	cl, err := Dial(o.Addr)
	if err != nil {
		c.local.Errors++
		return c.local, err
	}
	defer cl.Close()
	cl.SetTimeout(o.IOTimeout)
	c.cl = cl

	if err := c.session(); err != nil {
		if errors.Is(err, errLoadDeadline) {
			return c.local, nil
		}
		c.local.Errors++
		return c.local, err
	}
	if o.Batch > 1 {
		if cl.Proto() < ProtoV2 {
			c.local.Errors++
			return c.local, fmt.Errorf("serve: -batch %d needs protocol v2 but the server negotiated v%d", o.Batch, cl.Proto())
		}
		c.initBatch()
	}
	if o.Rate > 0 {
		perClient := o.Rate / float64(o.Clients)
		c.interval = time.Duration(float64(time.Second) / perClient * float64(o.Batch))
		c.next = time.Now()
	}

	for time.Now().Before(deadline) {
		if o.Churn > 0 && c.plan.Float64() < o.Churn {
			c.local.Churns++
			if err := c.session(); err != nil {
				return c.endRun(err)
			}
		}
		start := time.Now()
		if c.interval > 0 {
			// Open loop: ops arrive on the exponential schedule whether
			// or not the last one finished; latency is measured from the
			// scheduled arrival.
			gap := time.Duration(c.plan.ExpFloat64() * float64(c.interval))
			c.next = c.next.Add(gap)
			if wait := time.Until(c.next); wait > 0 {
				time.Sleep(wait)
			}
			start = c.next
		}
		var err error
		if c.o.Batch > 1 {
			err = c.iterBatch(start)
		} else {
			err = c.iterScalar(start)
		}
		if err != nil {
			return c.endRun(err)
		}
	}
	return c.local, nil
}

// endRun translates the deadline sentinel into a clean finish.
func (c *loadClient) endRun(err error) (*LoadReport, error) {
	if errors.Is(err, errLoadDeadline) {
		return c.local, nil
	}
	c.local.Errors++
	return c.local, err
}

// pickPool draws the next pool index from the configured popularity
// distribution.
func (c *loadClient) pickPool() int {
	if c.zipf != nil {
		return int(c.zipf.Uint64())
	}
	return c.plan.Intn(c.o.Pools)
}

// isUnavailable matches the typed answers a cluster emits while a
// backend is away: the router's UNAVAILABLE and a draining node's
// DRAINING.
func isUnavailable(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && (se.Code == ErrUnavailable || se.Code == ErrDraining)
}

// session (re-)establishes a session: CLOSE the current one if any,
// HELLO as the pool's identity, OPEN, ATTACH writable. Exclusive-writer
// conflicts re-pick another pool; UNAVAILABLE under tolerance backs off
// and re-picks; RETRY backs off and repeats. Gives up only at the run
// deadline (errLoadDeadline) or on a hard error.
func (c *loadClient) session() error {
	for {
		if !time.Now().Before(c.deadline) {
			return errLoadDeadline
		}
		if c.holding {
			// Ignore typed errors: the session may already be gone
			// server-side (evicted, or lost with a dead backend).
			var se *ServerError
			if err := c.cl.CloseSession(); err != nil && !errors.As(err, &se) {
				return err
			}
			c.holding = false
		}
		k := -1
		if c.o.Pools > 0 {
			k = c.pickPool()
			c.pool = PoolName(k)
			c.pat = poolPattern(k)
		} else {
			c.pool = fmt.Sprintf("load-%d", c.i)
			c.pat = clientPattern(c.i)
		}
		c.node = -1
		if c.o.NodeOf != nil {
			c.node = c.o.NodeOf(c.pool)
		}
		err := c.establish()
		switch {
		case err == nil:
			for j := range c.value {
				c.value[j] = c.pat
			}
			return nil
		case errors.Is(err, ErrServerBusy):
			c.local.Retries++
			c.backoff()
		case isUnavailable(err) && c.o.TolerateUnavailable:
			c.local.Unavailable++
			c.countNode(0, 0, 1)
			c.backoff()
		case isAttachConflict(err):
			c.local.Conflicts++
			c.holding = true // OPEN succeeded; CLOSE before re-picking
			if c.o.Pools <= 1 {
				// Nowhere else to go: someone else owns our only pool.
				return err
			}
			// A Zipf draw will often re-pick the same hot pool; back off
			// so its current writer gets a chance to move on.
			c.backoff()
		default:
			return err
		}
	}
}

// establish runs the HELLO/OPEN/ATTACH ladder for the picked pool.
func (c *loadClient) establish() error {
	if err := c.cl.Hello(c.pool); err != nil {
		return err
	}
	if _, err := c.cl.Open(c.pool, c.o.PoolSize); err != nil {
		return err
	}
	if err := c.cl.Attach(true); err != nil {
		return err
	}
	c.holding = true
	return nil
}

// isAttachConflict matches the exclusive-writer denial.
func isAttachConflict(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Code == ErrDenied
}

func (c *loadClient) backoff() {
	time.Sleep(time.Duration(100+c.jitter.Intn(400)) * time.Microsecond)
}

// countNode books per-node tallies when node attribution is on.
func (c *loadClient) countNode(ops uint64, latNS uint64, unavail uint64) {
	if c.node < 0 || c.node >= len(c.local.PerNode) {
		return
	}
	n := &c.local.PerNode[c.node]
	n.Ops += ops
	n.Unavailable += unavail
	if ops > 0 {
		n.Latency.Observe(latNS)
	}
}

// drawOp picks the next op kind (0 read, 1 write, 2 tx) and offset from
// the plan RNG — the same draw order as the original scalar loop, so
// legacy seeds replay identically.
func (c *loadClient) drawOp() (kind int, off uint64) {
	off = 256<<10 + uint64(c.plan.Int63n(int64(c.span)))
	switch {
	case c.plan.Float64() < c.o.ReadFraction:
		kind = 0
	case c.plan.Float64() < c.o.TxFraction:
		kind = 2
	default:
		kind = 1
	}
	return kind, off
}

// checkRead scans read bytes for foreign write patterns.
func (c *loadClient) checkRead(data []byte) {
	for _, b := range data {
		if b != 0 && b != c.pat {
			c.local.IsolationViolations++
			break
		}
	}
}

// countOK books one completed op.
func (c *loadClient) countOK(kind int, latNS uint64) {
	c.local.Latency.Observe(latNS)
	c.local.Ops++
	switch kind {
	case 0:
		c.local.Reads++
	case 1:
		c.local.Writes++
	case 2:
		c.local.Txs++
	}
	c.countNode(1, latNS, 0)
}

// iterScalar is one closed-loop iteration: a single request round trip.
func (c *loadClient) iterScalar(start time.Time) error {
	kind, off := c.drawOp()
	var err error
	switch kind {
	case 0:
		var data []byte
		data, err = c.cl.Read(uint32(off), uint32(c.o.ValueSize))
		if err == nil {
			c.checkRead(data)
		}
	case 2:
		err = c.cl.TxCommit([]TxWrite{{Off: uint32(off), Data: c.value}})
	default:
		err = c.cl.Write(uint32(off), c.value)
	}
	if err == nil {
		c.countOK(kind, uint64(time.Since(start).Nanoseconds()))
		return nil
	}
	return c.iterErr(err)
}

// initBatch sizes the reusable batch scratch.
func (c *loadClient) initBatch() {
	n := c.o.Batch
	c.reqs = make([]*Request, n)
	c.resps = make([]Response, n)
	c.txw = make([]TxWrite, n)
	for j := 0; j < n; j++ {
		c.reqs[j] = &Request{}
	}
}

// iterBatch is one pipelined iteration: Batch ops in one frame, one
// round trip, correlation-ID matched responses.
func (c *loadClient) iterBatch(start time.Time) error {
	for j := range c.reqs {
		kind, off := c.drawOp()
		req := c.reqs[j]
		switch kind {
		case 0:
			*req = Request{Op: OpRead, Off: uint32(off), Len: uint32(c.o.ValueSize)}
		case 2:
			c.txw[j] = TxWrite{Off: uint32(off), Data: c.value}
			*req = Request{Op: OpTxCommit, Tx: c.txw[j : j+1]}
		default:
			*req = Request{Op: OpWrite, Off: uint32(off), Data: c.value}
		}
	}
	if err := c.cl.DoBatch(c.reqs, c.resps); err != nil {
		return c.iterErr(err)
	}
	c.local.Batches++
	lat := uint64(time.Since(start).Nanoseconds())
	for j := range c.resps {
		resp := &c.resps[j]
		var kind int
		switch c.reqs[j].Op {
		case OpRead:
			kind = 0
		case OpTxCommit:
			kind = 2
		default:
			kind = 1
		}
		switch resp.Status {
		case StatusOK:
			if kind == 0 {
				c.checkRead(resp.Data)
			}
			c.countOK(kind, lat)
		default:
			if err := c.iterErr(&ServerError{Code: resp.Code, Msg: resp.Msg}); err != nil {
				return err
			}
			// The session was re-established (or the miss tolerated);
			// later entries in this batch carry stale session errors, so
			// stop scoring them.
			return nil
		}
	}
	return nil
}

// iterErr sorts one op failure into retry/evict/unavailable handling;
// a non-nil return ends the client.
func (c *loadClient) iterErr(err error) error {
	switch {
	case errors.Is(err, ErrServerBusy):
		c.local.Retries++
		c.backoff()
		return nil
	case isUnavailable(err) && c.o.TolerateUnavailable:
		c.local.Unavailable++
		c.countNode(0, 0, 1)
		c.holding = false // the backend (and session) are gone
		c.backoff()
		return c.session()
	default:
		var se *ServerError
		if errors.As(err, &se) && se.Code == ErrEvicted {
			c.local.Evicted++
			c.holding = false
			return c.session()
		}
		if errors.As(err, &se) && se.Code == ErrNoSession {
			// A batch answered after a mid-batch eviction/unavailable
			// recovery; treat as a session loss.
			c.local.Evicted++
			c.holding = false
			return c.session()
		}
		return err
	}
}
