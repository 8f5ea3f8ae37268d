package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"domainvirt/internal/cluster"
	"domainvirt/internal/reqtrace"
	"domainvirt/internal/serve"
	"domainvirt/internal/sim"
)

// The serve and cluster workloads use pmoload's default op mix: 70 %
// READs, and of the writes 10 % TX_COMMITs, 128-byte values. Each load
// connection is a closed loop: it sends its next request only once the
// previous reply is in, as pmod's callers do.
const (
	valueSize    = 128
	readFraction = 0.7
	txFraction   = 0.1
	dataBase     = 256 << 10 // pool header and redo log sit below

	servePoolSize   = 1 << 20
	clusterPoolSize = 512 << 10
	clusterBackends = 3
	clusterPools    = 256
	clusterZipfS    = 1.2
	clusterChurn    = 0.01 // per-iteration chance of a new session
	batchOps        = 8
)

// Op kinds, indexing per-kind tallies.
const (
	kindRead = iota
	kindWrite
	kindTx
)

func warmupOps(cfg config) int {
	if cfg.Tiny {
		return 200
	}
	return 2000
}

// roundOps is how many ops make one round; wall_s is the median round.
func roundOps(cfg config) int64 {
	if cfg.Tiny {
		return 500
	}
	return 10000
}

// stack is one running set of in-process servers: a pmod, or three pmods
// behind a pmorouter. Clients dial addr.
type stack struct {
	servers []*serve.Server
	router  *cluster.Router
	addr    string
	served  []chan error

	// Traced stacks log every frame each server handles.
	routerLog   *connLog
	backendLogs []*connLog
}

func serveOptions(traced bool) serve.Options {
	o := serve.Options{Engine: sim.SchemeDomainVirt, Shards: 8}
	if traced {
		// Stage histograms see every request; the span ring keeps few.
		o.Trace = reqtrace.Config{SampleEvery: 1 << 20}
	}
	return o
}

// listen opens a loopback listener, wrapped to log frames when t is set.
func listen(t *tracer) (net.Listener, *connLog, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	if t == nil {
		return lis, nil, nil
	}
	log := &connLog{t: t}
	return &logListener{Listener: lis, log: log}, log, nil
}

func (s *stack) serve(fn func() error) {
	ch := make(chan error, 1)
	s.served = append(s.served, ch)
	go func() { ch <- fn() }()
}

// startStack brings up one pmod (cluster false) or three pmods and a
// router. A non-nil tracer turns on server tracing and frame logs.
func startStack(clustered bool, t *tracer) (*stack, error) {
	s := &stack{}
	n := 1
	if clustered {
		n = clusterBackends
	}
	var addrs []string
	for i := 0; i < n; i++ {
		lis, log, err := listen(t)
		if err != nil {
			s.stop()
			return nil, err
		}
		srv := serve.NewServer(serveOptions(t != nil))
		s.servers = append(s.servers, srv)
		s.backendLogs = append(s.backendLogs, log)
		s.serve(func() error { return srv.Serve(lis) })
		addrs = append(addrs, lis.Addr().String())
	}
	s.addr = addrs[0]
	if clustered {
		r, err := cluster.NewRouter(cluster.Options{Backends: addrs})
		if err != nil {
			s.stop()
			return nil, err
		}
		lis, log, err := listen(t)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.router, s.routerLog, s.addr = r, log, lis.Addr().String()
		s.serve(func() error { return r.Serve(lis) })
	}
	return s, nil
}

// stop drains the router, then the servers, and waits for every Serve
// call to return.
func (s *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if s.router != nil {
		errs = append(errs, s.router.Shutdown(ctx))
	}
	for _, srv := range s.servers {
		errs = append(errs, srv.Shutdown(ctx))
	}
	for _, ch := range s.served {
		errs = append(errs, <-ch)
	}
	return errors.Join(errs...)
}

// lane is one load connection and everything it measured.
type lane struct {
	id        int
	clustered bool
	conn      net.Conn
	cl        *serve.Client
	plan      *rand.Rand
	zipf      *rand.Zipf

	pool    string
	pat     byte
	value   []byte
	span    uint64
	holding bool

	reqs  []*serve.Request
	resps []serve.Response
	txw   []serve.TxWrite

	log  opLog     // every op booked: ns from send to reply, or failedLat
	last time.Time // when the lane's latest op completed

	attempted, failed, retries int64
	sessAttempts, sessOK       int64
	sessLat                    []int64
	problem                    string // first failure, for the report
	broken                     bool   // transport error: the lane stopped

	// Traced lanes record one span per client call under root.
	rec    *recorder
	root   int32
	names  [3]uint16 // client.read/write/tx
	nBatch uint16
	nSess  uint16
	calls  []int32 // span index of each client call, in order
}

func newLane(id int, clustered bool, addr string, seed int64) (*lane, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	l := &lane{
		id:        id,
		clustered: clustered,
		conn:      c,
		cl:        serve.NewClient(c),
		plan:      rand.New(rand.NewSource(seed*1000003 + int64(id)*7919)),
		value:     make([]byte, valueSize),
	}
	l.cl.SetTimeout(30 * time.Second)
	size := uint64(servePoolSize)
	if clustered {
		size = clusterPoolSize
		l.zipf = rand.NewZipf(l.plan, clusterZipfS, 1, clusterPools-1)
		l.reqs = make([]*serve.Request, batchOps)
		for i := range l.reqs {
			l.reqs[i] = &serve.Request{}
		}
		l.resps = make([]serve.Response, batchOps)
		l.txw = make([]serve.TxWrite, batchOps)
	} else {
		l.txw = make([]serve.TxWrite, 1)
	}
	l.span = size - dataBase - valueSize
	if err := l.session(); err != nil {
		c.Close()
		return nil, err
	}
	if clustered && l.cl.Proto() < serve.ProtoV2 {
		c.Close()
		return nil, fmt.Errorf("batching needs protocol v2, negotiated v%d", l.cl.Proto())
	}
	return l, nil
}

// session (re)establishes the lane's session: CLOSE the current one,
// HELLO as the pool's owner, OPEN and ATTACH writable. A serve lane owns
// a private pool; a cluster lane draws one of the shared pools and, if
// another lane holds it for writing, draws again. Each attempt is one
// churn cycle.
func (l *lane) session() error {
	for {
		k := l.id
		if l.clustered {
			k = int(l.zipf.Uint64())
			l.pool = serve.PoolName(k)
		} else {
			l.pool = fmt.Sprintf("bench-%d", l.id)
		}
		l.pat = byte(0x11 + k%229)
		size := uint64(servePoolSize)
		if l.clustered {
			size = clusterPoolSize
		}
		t0 := time.Now()
		err := l.establish(size)
		t1 := time.Now()
		l.sessAttempts++
		l.sessLat = append(l.sessLat, int64(t1.Sub(t0)))
		if l.rec != nil {
			l.calls = append(l.calls, l.rec.add(l.nSess, l.root, int64(len(l.sessLat)), l.rec.t.at(t0), l.rec.t.at(t1)))
		}
		var se *serve.ServerError
		switch {
		case err == nil:
			l.sessOK++
			for i := range l.value {
				l.value[i] = l.pat
			}
			return nil
		case l.clustered && errors.As(err, &se) && se.Code == serve.ErrDenied:
			// Exclusive-writer conflict: the OPEN stands, so CLOSE it
			// on the next attempt and draw another pool.
		default:
			return err
		}
	}
}

func (l *lane) establish(size uint64) error {
	if l.holding {
		if err := l.cl.CloseSession(); err != nil {
			return err
		}
		l.holding = false
	}
	if err := l.cl.Hello(l.pool); err != nil {
		return err
	}
	if _, err := l.cl.Open(l.pool, size); err != nil {
		return err
	}
	l.holding = true
	return l.cl.Attach(true)
}

// draw picks the next op and offset from the lane's plan.
func (l *lane) draw() (kind int, off uint32) {
	off = uint32(dataBase + uint64(l.plan.Int63n(int64(l.span))))
	switch {
	case l.plan.Float64() < readFraction:
		kind = kindRead
	case l.plan.Float64() < txFraction:
		kind = kindTx
	default:
		kind = kindWrite
	}
	return kind, off
}

// isolated applies pmoload's isolation rule: a READ may only see zero
// bytes or its own pool's pattern.
func (l *lane) isolated(data []byte) bool {
	for _, b := range data {
		if b != 0 && b != l.pat {
			return false
		}
	}
	return true
}

// failedLat marks an op that failed; latencies are capped just below it.
const (
	failedLat = math.MaxUint32
	maxLat    = time.Duration(failedLat - 1)
)

// opLog keeps every op a lane books, 5 bytes each (latency, kind), in
// fixed chunks mapped outside the Go heap. The log grows with
// throughput; on the heap, its growth copies and the garbage they left
// moved peak_rss_mb with every change in ops/s, and its size set the GC
// pacing of the servers, which share this process. Off the heap it adds
// only its own bytes, and the servers' GC runs as it would without it.
type opLog struct {
	chunks [][]byte
	n      int // ops logged
}

const (
	opRecord   = 5
	chunkBytes = 1 << 20
	chunkOps   = chunkBytes / opRecord
)

func (g *opLog) add(lat uint32, kind uint8) error {
	if g.n == len(g.chunks)*chunkOps {
		c, err := syscall.Mmap(-1, 0, chunkBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return err
		}
		g.chunks = append(g.chunks, c)
	}
	rec := g.chunks[g.n/chunkOps][g.n%chunkOps*opRecord:]
	binary.LittleEndian.PutUint32(rec, lat)
	rec[4] = kind
	g.n++
	return nil
}

func (g *opLog) at(i int) (lat uint32, kind uint8) {
	rec := g.chunks[i/chunkOps][i%chunkOps*opRecord:]
	return binary.LittleEndian.Uint32(rec), rec[4]
}

// free unmaps the chunks and empties the log.
func (g *opLog) free() {
	for _, c := range g.chunks {
		syscall.Munmap(c)
	}
	g.chunks, g.n = nil, 0
}

// book records one op's outcome and reports whether it succeeded; err
// non-nil or !ok marks it failed.
func (l *lane) book(kind int, t0, t1 time.Time, err error, ok bool) bool {
	l.attempted++
	l.last = t1
	lat := uint32(min(t1.Sub(t0), maxLat))
	failed := err != nil || !ok
	if failed {
		l.failed++
		lat = failedLat
		if errors.Is(err, serve.ErrServerBusy) {
			l.retries++
		}
		if l.problem == "" {
			if err != nil {
				l.problem = err.Error()
			} else {
				l.problem = "READ failed the isolation check"
			}
		}
	}
	if err := l.log.add(lat, uint8(kind)); err != nil {
		l.problem = "op log: " + err.Error()
		l.broken = true
	}
	return !failed
}

// step runs one closed-loop iteration: one scalar request (serve) or
// one BATCH of batchOps requests, after a possible churn (cluster).
func (l *lane) step(clk *roundClock) {
	if !l.clustered {
		kind, off := l.draw()
		var err error
		ok := true
		t0 := time.Now()
		switch kind {
		case kindRead:
			var data []byte
			data, err = l.cl.Read(off, valueSize)
			ok = err != nil || l.isolated(data)
		case kindTx:
			l.txw[0] = serve.TxWrite{Off: off, Data: l.value}
			err = l.cl.TxCommit(l.txw)
		default:
			err = l.cl.Write(off, l.value)
		}
		t1 := time.Now()
		if l.book(kind, t0, t1, err, ok) {
			clk.add(1, t1)
		}
		if l.rec != nil {
			l.calls = append(l.calls, l.rec.add(l.names[kind], l.root, int64(l.log.n), l.rec.t.at(t0), l.rec.t.at(t1)))
		}
		l.checkBroken(err)
		return
	}
	if l.plan.Float64() < clusterChurn {
		if err := l.session(); err != nil {
			l.attempted++
			l.failed++
			if l.problem == "" {
				l.problem = "session: " + err.Error()
			}
			l.broken = true
			return
		}
	}
	for j, req := range l.reqs {
		kind, off := l.draw()
		switch kind {
		case kindRead:
			*req = serve.Request{Op: serve.OpRead, Off: off, Len: valueSize}
		case kindTx:
			l.txw[j] = serve.TxWrite{Off: off, Data: l.value}
			*req = serve.Request{Op: serve.OpTxCommit, Tx: l.txw[j : j+1]}
		default:
			*req = serve.Request{Op: serve.OpWrite, Off: off, Data: l.value}
		}
	}
	t0 := time.Now()
	err := l.cl.DoBatch(l.reqs, l.resps)
	t1 := time.Now()
	if l.rec != nil {
		l.calls = append(l.calls, l.rec.add(l.nBatch, l.root, int64(l.log.n), l.rec.t.at(t0), l.rec.t.at(t1)))
	}
	var succeeded int64
	for j, req := range l.reqs {
		kind := kindWrite
		switch req.Op {
		case serve.OpRead:
			kind = kindRead
		case serve.OpTxCommit:
			kind = kindTx
		}
		opErr := err
		ok := true
		if err == nil {
			resp := &l.resps[j]
			if resp.Status != serve.StatusOK {
				opErr = &serve.ServerError{Code: resp.Code, Msg: resp.Msg}
			} else if kind == kindRead {
				ok = l.isolated(resp.Data)
			}
		}
		if l.book(kind, t0, t1, opErr, ok) {
			succeeded++
		}
	}
	clk.add(succeeded, t1)
	l.checkBroken(err)
}

// checkBroken stops a lane whose connection failed: every later request
// on it would fail the same way.
func (l *lane) checkBroken(err error) {
	var se *serve.ServerError
	if err != nil && !errors.Is(err, serve.ErrServerBusy) && !errors.As(err, &se) {
		l.broken = true
	}
}

// roundClock stamps the completion of every size-th successful op across
// the lanes of a timed phase: the rounds wall_s is the median of.
type roundClock struct {
	start time.Time
	size  int64
	done  atomic.Int64
	mu    sync.Mutex
	ends  []time.Duration // since start, in booking order
}

// add books n successful ops completed at t; n is at most one batch, so
// it crosses at most one round boundary. A nil clock books nothing.
func (c *roundClock) add(n int64, t time.Time) {
	if c == nil || n == 0 {
		return
	}
	if d := c.done.Add(n); d/c.size != (d-n)/c.size {
		c.mu.Lock()
		c.ends = append(c.ends, t.Sub(c.start))
		c.mu.Unlock()
	}
}

// rounds returns each complete round's wall seconds. Call it once the
// lanes have stopped.
func (c *roundClock) rounds() []float64 {
	sort.Slice(c.ends, func(i, j int) bool { return c.ends[i] < c.ends[j] })
	var out []float64
	var prev time.Duration
	for _, e := range c.ends {
		out = append(out, (e - prev).Seconds())
		prev = e
	}
	return out
}

// resetTallies clears what the warm-up measured.
func (l *lane) resetTallies() {
	l.log.free()
	l.sessLat, l.calls = nil, nil
	l.attempted, l.failed, l.retries, l.sessAttempts, l.sessOK = 0, 0, 0, 0, 0
	l.problem = ""
}

// runLanes drives every lane concurrently: until n ops each when n > 0,
// else until the deadline. It returns when all lanes have stopped.
func runLanes(lanes []*lane, clk *roundClock, deadline time.Time, n int) {
	var wg sync.WaitGroup
	for _, l := range lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			for !l.broken {
				if n > 0 && l.log.n >= n {
					return
				}
				if n == 0 && !time.Now().Before(deadline) {
					return
				}
				l.step(clk)
			}
		}(l)
	}
	wg.Wait()
}

// load is one set-up stack with its lanes, warmed up.
type load struct {
	st    *stack
	lanes []*lane
}

func (ld *load) close() error {
	for _, l := range ld.lanes {
		l.conn.Close()
		l.log.free()
	}
	if ld.st == nil {
		return nil
	}
	return ld.st.stop()
}

// setUp brings the servers up, opens every lane's session and runs the
// warm-up load; warm-up failures are reported as problems.
func setUp(cfg config, clustered bool, t *tracer, out *output) (*load, error) {
	st, err := startStack(clustered, t)
	if err != nil {
		return nil, err
	}
	ld := &load{st: st}
	for i := 0; i < cfg.Workers; i++ {
		l, err := newLane(i, clustered, st.addr, cfg.Seed)
		if err != nil {
			ld.close()
			return nil, fmt.Errorf("lane %d: %w", i, err)
		}
		ld.lanes = append(ld.lanes, l)
	}
	runLanes(ld.lanes, nil, time.Time{}, warmupOps(cfg))
	for _, l := range ld.lanes {
		if l.failed > 0 {
			out.fail("warm-up lane %d: %d of %d ops failed (first: %s)", l.id, l.failed, l.attempted, l.problem)
		}
		l.resetTallies()
	}
	return ld, nil
}

// loadRun is what one timed load measured.
type loadRun struct {
	start           time.Time
	wall            time.Duration // until the last op completed
	peakRSS         float64       // MB, read as the timed phase ends
	ops, failed     int64
	attempted       int64
	retries         int64
	lat             []int64 // every op, failedSample if it failed
	rounds          []float64
	byKind          [3][]int64
	window          int       // ops in one latency window of a lane
	winP50, winP99  []float64 // each window's exact percentiles, ns
	sessLat         []int64
	sessOK, sessAll int64
}

// measure runs the lanes for cfg.Seconds and gathers their tallies,
// with the exact p50 and p99 of each window of a lane's consecutive ops.
func measure(cfg config, ld *load, out *output) loadRun {
	clk := &roundClock{start: time.Now(), size: roundOps(cfg)}
	runLanes(ld.lanes, clk, clk.start.Add(time.Duration(cfg.Seconds*float64(time.Second))), 0)
	r := loadRun{start: clk.start, peakRSS: peakRSSMB(), rounds: clk.rounds(), window: int(roundOps(cfg)) / len(ld.lanes)}
	for _, l := range ld.lanes {
		if l.problem != "" {
			out.fail("lane %d: %d of %d ops failed (first: %s)", l.id, l.failed, l.attempted, l.problem)
		}
		r.attempted += l.attempted
		r.failed += l.failed
		r.retries += l.retries
		r.wall = max(r.wall, l.last.Sub(clk.start))
		first := len(r.lat)
		for i := 0; i < l.log.n; i++ {
			v, kind := l.log.at(i)
			s := int64(v)
			if v == failedLat {
				s = failedSample
			}
			r.lat = append(r.lat, s)
			r.byKind[kind] = append(r.byKind[kind], s)
		}
		l.log.free()
		r.winP50 = append(r.winP50, windowPercentiles(r.lat[first:], r.window, 50)...)
		r.winP99 = append(r.winP99, windowPercentiles(r.lat[first:], r.window, 99)...)
		r.sessLat = append(r.sessLat, l.sessLat...)
		r.sessOK += l.sessOK
		r.sessAll += l.sessAttempts
	}
	r.ops = r.attempted - r.failed
	return r
}

func runServe(cfg config, out *output) error   { return runLoad(cfg, out, false) }
func runCluster(cfg config, out *output) error { return runLoad(cfg, out, true) }

func runLoad(cfg config, out *output, clustered bool) error {
	name := "serve"
	if clustered {
		name = "cluster"
	}
	var ld *load
	setUpLoad := func() error {
		var err error
		ld, err = setUp(cfg, clustered, nil, out)
		return err
	}
	tearDown := func() {
		if err := ld.close(); err != nil {
			out.fail("%s shutdown: %v", name, err)
		}
		// Hand the torn-down stack back to the OS so peak_rss_mb
		// reflects one stack, not every set-up.
		debug.FreeOSMemory()
	}
	setups, err := timeSetups(setupRepeats, setUpLoad, tearDown)
	if err != nil {
		return err
	}
	r := measure(cfg, ld, out)
	tearDown()
	// Set up as often again after the timed phase, so the samples span
	// the run rather than one instant of a host whose speed drifts.
	more, err := timeSetups(setupRepeats, setUpLoad, tearDown)
	if err != nil {
		return err
	}
	tearDown()
	setups = append(setups, more...)
	out.count(r.attempted, r.failed)
	if len(r.rounds) == 0 || len(r.winP50) == 0 {
		return fmt.Errorf("%d ops completed, fewer than one %d-op round", r.ops, roundOps(cfg))
	}
	p50, p99 := percentileOf(r.lat, 50), percentileOf(r.lat, 99)
	opsPerS := float64(r.ops) / r.wall.Seconds()
	out.linef("%s: %d closed-loop connection(s), seed %d, %.3fs timed", name, cfg.Workers, cfg.Seed, r.wall.Seconds())
	out.linef("  %d ops ok, %d failed, %d retries; %.0f ops/s; %d rounds of %d ops, median %.5fs (spread %.3f)",
		r.ops, r.failed, r.retries, opsPerS, len(r.rounds), roundOps(cfg), median(r.rounds), spread(r.rounds))
	out.linef("  latency over all ops: p50 %.2fus (n=%d, %d beyond), p99 %.2fus (n=%d, %d beyond)",
		float64(p50.Value)/1e3, p50.N, p50.Beyond, float64(p99.Value)/1e3, p99.N, p99.Beyond)
	out.linef("  latency per window of %d ops of one connection, median over %d windows: p50 %.2fus (spread %.3f), p99 %.2fus (spread %.3f)",
		r.window, len(r.winP50), median(r.winP50)/1e3, spread(r.winP50), median(r.winP99)/1e3, spread(r.winP99))
	if clustered {
		out.linef("  sessions: %d of %d attempts established", r.sessOK, r.sessAll)
	}
	out.e2e("setup_s", median(setups))
	out.e2e("wall_s", median(r.rounds))
	out.e2e("warm_wall_s", median(secondHalf(r.rounds)))
	out.e2e("ops_per_s", opsPerS)
	out.e2e("p50_us", median(r.winP50)/1e3)
	out.e2e("p99_us", median(r.winP99)/1e3)
	out.e2e("peak_rss_mb", r.peakRSS)
	if !cfg.Traced {
		return nil
	}
	return traceLoad(cfg, out, clustered, opsPerS)
}

// traceLoad repeats the load with server tracing on, a span per client
// call and a logged frame per server hop, and reports the breakdown.
func traceLoad(cfg config, out *output, clustered bool, untracedOps float64) error {
	name := "serve"
	if clustered {
		name = "cluster"
	}
	t := newTracer()
	ld, err := setUp(cfg, clustered, t, out)
	if err != nil {
		return err
	}
	for _, l := range ld.lanes {
		l.rec = t.recorder()
		l.names = [3]uint16{t.id("client.read"), t.id("client.write"), t.id("client.tx")}
		l.nBatch, l.nSess = t.id("client.batch"), t.id("client.session")
	}
	st := ld.st
	permBefore := permSwitches(st)
	for _, l := range ld.lanes {
		l.root = l.rec.add(t.id("bench.lane"), -1, int64(l.id), 0, 0)
	}
	r := measure(cfg, ld, out)
	for _, l := range ld.lanes {
		l.rec.spans[l.root].start = t.at(r.start)
		l.rec.spans[l.root].end = t.at(r.start) + int64(r.wall)
	}
	perm := permSwitches(st) - permBefore
	var total [7]float64 // six stage sums then the request count
	for _, srv := range st.servers {
		_, stages := srv.Tracer().Histograms()
		for i := range stages {
			total[i] += float64(stages[i].Sum)
		}
		total[6] += float64(stages[0].Count)
	}
	var reuse, dials float64
	if clustered {
		var buf bytes.Buffer
		if err := st.router.WriteMetrics(&buf); err != nil {
			return err
		}
		reuse, dials = promSum(buf.String(), `event="reuse"`), promSum(buf.String(), `event="dial"`)
	}
	if err := ld.close(); err != nil {
		out.fail("%s shutdown: %v", name, err)
	}
	out.count(r.attempted, r.failed)

	// Hang each server hop's frame span under the call that caused it.
	var server, clientData, backendBatch float64
	var batches int64
	if clustered {
		routerSpans := link(t, ld.lanes, st.routerLog, t.id("cluster.router"), out)
		backendBatch, batches = linkBackends(t, ld.lanes, routerSpans, st.backendLogs, t.id("serve.server"))
		for _, l := range ld.lanes {
			clientData += l.dataCallNS()
		}
		server = backendBatch
	} else {
		serverSpans := link(t, ld.lanes, st.backendLogs[0], t.id("serve.server"), out)
		for li, l := range ld.lanes {
			clientData += l.dataCallNS()
			for _, s := range serverSpans[li] {
				server += float64(l.rec.spans[s].end - l.rec.spans[s].start)
			}
		}
	}

	// No bench cap here: the client loop draws and books every op between
	// its calls, a few per cent of the lane time that no layer owns.
	b := t.selfTimes("bench.lane", len(ld.lanes), r.wall)
	b.report(out, name, 0)
	tracedOps := float64(r.ops) / r.wall.Seconds()
	out.linef("  traced: %.0f ops/s (untraced %.0f)", tracedOps, untracedOps)
	out.layer("bench.trace_overhead", untracedOps/tracedOps)
	for k, m := range []string{"serve.read_us", "serve.write_us", "serve.tx_us"} {
		out.layer(m, float64(percentileOf(r.byKind[k], 50).Value)/1e3)
	}
	if total[6] > 0 {
		for i, st := range stageNames {
			out.layer("serve.stage."+st+"_us", total[i]/total[6]/1e3)
		}
	}
	if clientData > 0 {
		out.layer("serve.server_share", server/clientData)
	}
	if r.ops > 0 {
		out.layer("serve.perm_switches_per_op", float64(perm)/float64(r.ops))
	}
	out.layer("serve.retries", float64(r.retries))
	if clustered {
		out.layer("cluster.session_us", float64(percentileOf(r.sessLat, 50).Value)/1e3)
		if r.sessAll > 0 {
			out.layer("cluster.session_success_ratio", float64(r.sessOK)/float64(r.sessAll))
		}
		if reuse+dials > 0 {
			out.layer("cluster.upstream_reuse_ratio", reuse/(reuse+dials))
		}
		if batches > 0 {
			out.layer("cluster.hop_us", (clientData-backendBatch)/float64(batches)/1e3)
		}
	}
	return t.dump(spanPath(cfg.Dir, name))
}

// dataCallNS sums the lane's traced data calls, sessions excluded.
func (l *lane) dataCallNS() float64 {
	var ns float64
	for _, c := range l.calls {
		if s := l.rec.spans[c]; s.name != l.nSess {
			ns += float64(s.end - s.start)
		}
	}
	return ns
}

// permSwitches sums the servers' SETPERM counts.
func permSwitches(st *stack) uint64 {
	var n uint64
	for _, srv := range st.servers {
		if e := srv.EngineTotals(); e != nil {
			n += e.PermSwitches
		}
	}
	return n
}

// promSum adds up every sample of a Prometheus text body whose labels
// contain match.
func promSum(body, match string) float64 {
	var sum float64
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "#") || !strings.Contains(line, match) {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				sum += v
			}
		}
	}
	return sum
}
