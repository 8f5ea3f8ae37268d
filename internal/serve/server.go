package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"domainvirt/internal/core"
	"domainvirt/internal/pmo"
	"domainvirt/internal/reqtrace"
	"domainvirt/internal/sim"
	"domainvirt/internal/trace"
	"domainvirt/internal/txn"
)

// serverSite is the single vetted SETPERM call site the daemon uses for
// its permission windows; when an engine is active it is approved with
// the ERIM-style inspector so gadget-reuse from any other site is
// flagged (security_test.go's TestGadgetReuseBlocked scenario).
const serverSite = core.SiteID(1)

// Options configures a Server.
type Options struct {
	// Store is the PMO namespace to serve; nil creates an in-memory one.
	Store *pmo.Store
	// Shards is the session-table shard count, rounded up to a power of
	// two (default 8). Each shard has its own mutex, address space, and
	// — when Engine is set — its own protection-engine machine.
	Shards int
	// Workers is the request worker-pool size (default 2*GOMAXPROCS).
	Workers int
	// QueueDepth bounds the request queue; a full queue answers RETRY
	// instead of building unbounded latency (default 256).
	QueueDepth int
	// IdleTimeout evicts sessions with no request for this long
	// (default 2m; 0 disables eviction).
	IdleTimeout time.Duration
	// Engine, when non-empty and not "none", runs every shard's address
	// space under that protection scheme: each session's pool is its
	// own domain, and every request executes inside a least-privilege
	// SETPERM window for the session's thread.
	Engine sim.Scheme
	// DefaultPoolSize is used when OPEN asks for size 0 (default 1 MiB).
	DefaultPoolSize uint64
	// SyncEvery periodically persists dirty pools of a file-backed
	// store from the janitor (default 1s; 0 disables periodic sync —
	// drain still syncs).
	SyncEvery time.Duration
	// Trace configures per-request span tracing (internal/reqtrace).
	// The zero value disables it: the request path then pays only nil
	// pointer checks (no clock reads, no allocations). OpNames is
	// filled in automatically.
	Trace reqtrace.Config
	// CaptureOpen, when set, tees every shard's instrumentation stream
	// into a trace.Capture recording the live traffic in the binary
	// trace format. It is called lazily per (shard, segment) when that
	// segment's first bytes are flushed. Works in engine and library
	// mode alike.
	CaptureOpen func(shard, seg int) (io.WriteCloser, error)
	// CaptureMaxSegmentBytes rotates each shard's capture to a new
	// independently-replayable segment past this size (0: no rotation).
	CaptureMaxSegmentBytes int64
	// CaptureBufferBytes bounds each shard capture's unflushed bytes;
	// past it, data events are dropped (and counted) while control
	// events are kept. Default 1 MiB.
	CaptureBufferBytes int
	// CaptureVerdicts additionally records each shard's Access/Fetch
	// verdict bitstream (engine mode only), so a live run's enforcement
	// decisions can be compared bit-for-bit against a replay of its
	// captured trace.
	CaptureVerdicts bool
}

func (o *Options) withDefaults() Options {
	v := *o
	if v.Store == nil {
		v.Store = pmo.NewStore()
	}
	if v.Shards <= 0 {
		v.Shards = 8
	}
	n := 1
	for n < v.Shards {
		n <<= 1
	}
	v.Shards = n
	if v.Workers <= 0 {
		v.Workers = 2 * runtime.GOMAXPROCS(0)
	}
	if v.QueueDepth <= 0 {
		v.QueueDepth = 256
	}
	if v.IdleTimeout == 0 {
		v.IdleTimeout = 2 * time.Minute
	}
	if v.DefaultPoolSize == 0 {
		v.DefaultPoolSize = 1 << 20
	}
	if v.SyncEvery == 0 {
		v.SyncEvery = time.Second
	}
	if v.Engine == "none" {
		v.Engine = ""
	}
	return v
}

// session is one client's open PMO session: its pool, its (possibly
// detached) attachment, and the simulated thread its requests run as.
type session struct {
	id       uint64
	client   string
	pool     *pmo.Pool
	att      *pmo.Attachment // nil while detached
	thread   core.ThreadID
	lastUsed atomic.Int64 // unix nanos
}

// shard is one slice of the session table. Its mutex serializes every
// request against its sessions, which also serializes all traffic into
// its address space and machine (the simulator replays one interleaved
// trace per shard).
type shard struct {
	mu         sync.Mutex
	space      *pmo.Space
	machine    *sim.Machine      // nil in library mode
	capture    *trace.Capture    // nil unless CaptureOpen is set
	verdicts   *trace.VerdictLog // nil unless CaptureVerdicts (guarded by mu)
	sessions   map[uint64]*session
	nextThread core.ThreadID
}

// conn is one client connection: at most one session, one writer lock.
type conn struct {
	c       net.Conn
	bw      *bufio.Writer
	writeMu sync.Mutex

	stateMu sync.Mutex
	client  string
	sid     uint64
	proto   uint8 // negotiated wire version; 0 until HELLO (treated as v1)
}

func (cn *conn) send(s *Server, payload []byte) {
	cn.writeMu.Lock()
	defer cn.writeMu.Unlock()
	if writeFrame(cn.bw, payload) == nil {
		cn.bw.Flush()
	}
	s.met.BytesOut.Add(uint64(len(payload)))
}

// job is one parsed request — or one v2 batch of requests — bound for
// the worker pool. Exactly one of req and batch is set.
type job struct {
	cn    *conn
	req   *Request
	batch *Batch
}

// reqPool recycles decoded requests — with their Tx and scratch
// backing arrays — across the read→worker path. Once the buffers have
// grown to the working-set size, a steady stream of data requests is
// parsed, queued, dispatched, and answered without allocating.
var reqPool = sync.Pool{New: func() any { return new(Request) }}

// batchPool recycles batch containers (and their Reqs backing arrays)
// the same way, so the v2 batched path is also allocation-free in
// steady state.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

func getPooledRequest() *Request { return reqPool.Get().(*Request) }

// releaseBatch returns a batch and its sub-requests to their pools.
func releaseBatch(b *Batch) {
	for i, req := range b.Reqs {
		req.tr = nil
		reqPool.Put(req)
		b.Reqs[i] = nil
	}
	b.Reqs = b.Reqs[:0]
	batchPool.Put(b)
}

// workCtx is one worker's reusable request-scoped storage: the response
// under construction, its encoded frame, and the READ data buffer. The
// worker finishes sending the frame before taking the next job, so
// nothing here outlives one dispatch.
type workCtx struct {
	resp Response
	enc  []byte
	data []byte
	neg  [1]byte // stable storage for the HELLO negotiation response body
}

// ok fills the worker's response with a bare success for id.
func (w *workCtx) ok(id uint32) *Response {
	w.resp = Response{Status: StatusOK, ID: id}
	return &w.resp
}

// Server is the concurrent PMO service: a sharded session table over a
// pmo.Store, a bounded worker pool with RETRY backpressure, idle-session
// eviction, per-request least-privilege domain windows, and graceful
// drain.
type Server struct {
	opts   Options
	store  *pmo.Store
	met    *Metrics
	tracer *reqtrace.Tracer // nil when tracing is disabled

	shards []*shard
	mask   uint64

	nextSID atomic.Uint64
	jobs    chan job

	connMu sync.Mutex
	conns  map[*conn]struct{}

	draining  atomic.Bool
	lis       net.Listener
	readersWG sync.WaitGroup
	workersWG sync.WaitGroup
	janitorCh chan struct{}
	janitorWG sync.WaitGroup
	started   atomic.Bool
}

// NewServer builds a server; call Serve to start handling a listener.
func NewServer(opts Options) *Server {
	o := opts.withDefaults()
	s := &Server{
		opts:      o,
		store:     o.Store,
		met:       &Metrics{},
		mask:      uint64(o.Shards - 1),
		jobs:      make(chan job, o.QueueDepth),
		conns:     make(map[*conn]struct{}),
		janitorCh: make(chan struct{}),
	}
	if o.Trace.Enabled() {
		if o.Trace.OpNames == nil {
			o.Trace.OpNames = opNames[:]
		}
		s.tracer = reqtrace.New(o.Trace)
		s.opts.Trace = o.Trace
	}
	for i := 0; i < o.Shards; i++ {
		sh := &shard{sessions: make(map[uint64]*session), nextThread: 1}
		// Sink stack per shard: capture (raw record, always permits) in
		// front of the enforcing machine, with the verdict wrapper
		// between the tee and the machine so live enforcement decisions
		// land in a comparable bitstream.
		var sinks []trace.Sink
		if o.CaptureOpen != nil {
			shardIdx := i
			sh.capture = trace.NewCapture(trace.CaptureOptions{
				Open:            func(seg int) (io.WriteCloser, error) { return o.CaptureOpen(shardIdx, seg) },
				MaxSegmentBytes: o.CaptureMaxSegmentBytes,
				BufferBytes:     o.CaptureBufferBytes,
			})
			sinks = append(sinks, sh.capture)
		}
		if o.Engine != "" {
			m := sim.NewMachine(sim.DefaultConfig(), o.Engine)
			insp := core.NewInspector()
			insp.Approve(serverSite, "pmod vetted permission gate")
			m.SetInspector(insp)
			sh.machine = m
			var ms trace.Sink = m
			if o.CaptureVerdicts {
				sh.verdicts = &trace.VerdictLog{}
				ms = trace.WithVerdicts(m, sh.verdicts)
			}
			sinks = append(sinks, ms)
		}
		switch len(sinks) {
		case 0:
			sh.space = pmo.NewSpace(nil)
		case 1:
			sh.space = pmo.NewSpace(sinks[0])
		default:
			sh.space = pmo.NewSpace(trace.NewTee(sinks...))
		}
		s.shards = append(s.shards, sh)
	}
	return s
}

// Metrics returns the server's live metrics.
func (s *Server) Metrics() *Metrics { return s.met }

// Tracer returns the request tracer (nil when tracing is disabled).
func (s *Server) Tracer() *reqtrace.Tracer { return s.tracer }

// CaptureStats aggregates the shard captures' counters; ok is false
// when capture is not configured.
func (s *Server) CaptureStats() (st trace.CaptureStats, ok bool) {
	for _, sh := range s.shards {
		if sh.capture == nil {
			continue
		}
		ok = true
		c := sh.capture.Stats()
		st.Events += c.Events
		st.Dropped += c.Dropped
		st.Bytes += c.Bytes
		st.Segments += c.Segments
	}
	return st, ok
}

// CaptureErr returns the first capture I/O error across shards.
func (s *Server) CaptureErr() error {
	for _, sh := range s.shards {
		if sh.capture != nil {
			if err := sh.capture.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// ShardVerdicts copies shard i's live verdict bitstream (nil unless
// CaptureVerdicts is on and the shard has a log).
func (s *Server) ShardVerdicts(i int) *trace.VerdictLog {
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.verdicts == nil {
		return nil
	}
	cp := &trace.VerdictLog{}
	cp.Merge(sh.verdicts)
	return cp
}

// Engine returns the configured protection scheme ("" for library mode).
func (s *Server) Engine() sim.Scheme { return s.opts.Engine }

func (s *Server) shardOf(sid uint64) *shard { return s.shards[sid&s.mask] }

// SessionCount returns the number of live sessions across all shards.
func (s *Server) SessionCount() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.sessions)
		sh.mu.Unlock()
	}
	return n
}

// ConnCount returns the number of live connections.
func (s *Server) ConnCount() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return len(s.conns)
}

// EngineTotals sums the protection-engine counters across shards, or
// nil in library mode.
func (s *Server) EngineTotals() *EngineTotals {
	if s.opts.Engine == "" {
		return nil
	}
	t := &EngineTotals{}
	for _, sh := range s.shards {
		sh.mu.Lock()
		res := sh.machine.Result()
		sh.mu.Unlock()
		t.DomainFaults += res.Counters.DomainFaults
		t.PageFaults += res.Counters.PageFaults
		t.PermSwitches += res.Counters.PermSwitches
		t.Evictions += res.Counters.Evictions
		t.TLBFlushed += res.Counters.TLBFlushed
	}
	return t
}

// WriteMetrics renders the full Prometheus snapshot (also the STATS op
// body and the -metrics HTTP endpoint body): the base counters, the
// per-stage request-latency histograms when tracing is on, and the
// capture counters when the shard tee is recording.
func (s *Server) WriteMetrics(w io.Writer) error {
	if err := s.met.WritePrometheus(w, s.SessionCount(), s.ConnCount(), s.EngineTotals()); err != nil {
		return err
	}
	if err := s.tracer.WritePromStageHistograms(w, "pmod_stage_latency_ns", "pmod_request_latency_ns"); err != nil {
		return err
	}
	if st, ok := s.CaptureStats(); ok {
		fmt.Fprintf(w, "# HELP pmod_capture_events_total Instrumentation events recorded by the shard capture tee.\n# TYPE pmod_capture_events_total counter\n")
		fmt.Fprintf(w, "pmod_capture_events_total %d\n", st.Events)
		fmt.Fprintf(w, "# HELP pmod_capture_dropped_total Data events dropped by capture backpressure.\n# TYPE pmod_capture_dropped_total counter\n")
		fmt.Fprintf(w, "pmod_capture_dropped_total %d\n", st.Dropped)
		fmt.Fprintf(w, "# HELP pmod_capture_bytes_total Encoded trace bytes handed to the capture flushers.\n# TYPE pmod_capture_bytes_total counter\n")
		fmt.Fprintf(w, "pmod_capture_bytes_total %d\n", st.Bytes)
		fmt.Fprintf(w, "# HELP pmod_capture_segments Capture segments started across shards.\n# TYPE pmod_capture_segments gauge\n")
		fmt.Fprintf(w, "pmod_capture_segments %d\n", st.Segments)
	}
	return nil
}

// Serve accepts connections until Shutdown (returns nil) or a listener
// error. It starts the worker pool and the janitor on first call.
func (s *Server) Serve(lis net.Listener) error {
	s.connMu.Lock()
	s.lis = lis
	draining := s.draining.Load()
	s.connMu.Unlock()
	if draining {
		lis.Close()
		return nil
	}
	if s.started.CompareAndSwap(false, true) {
		for i := 0; i < s.opts.Workers; i++ {
			s.workersWG.Add(1)
			go s.worker()
		}
		s.janitorWG.Add(1)
		go s.janitor()
	}
	for {
		c, err := lis.Accept()
		if err != nil {
			if s.draining.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		cn := &conn{c: c, bw: bufio.NewWriter(c)}
		s.connMu.Lock()
		if s.draining.Load() {
			s.connMu.Unlock()
			c.Close()
			continue
		}
		s.conns[cn] = struct{}{}
		s.connMu.Unlock()
		s.readersWG.Add(1)
		go s.readLoop(cn)
	}
}

// readLoop parses frames off one connection and feeds the worker pool;
// framing errors are answered inline with typed errors so a malformed
// client can never occupy a worker.
func (s *Server) readLoop(cn *conn) {
	defer s.readersWG.Done()
	br := bufio.NewReader(cn.c)
	tracing := s.tracer != nil
	var buf []byte
	for {
		payload, t0, err := readFrameTimed(br, buf, tracing)
		if err != nil {
			var tooBig errFrameTooLarge
			if errors.As(err, &tooBig) {
				// Unrecoverable framing: answer, then drop the conn.
				s.respondErr(cn, 0, wireErr(ErrTooLarge, tooBig.Error()))
			}
			if s.draining.Load() {
				// Deadline pop from Shutdown: stop reading, leave the
				// conn open so in-flight responses still flush.
				return
			}
			s.dropConn(cn, true)
			return
		}
		buf = payload[:0]
		s.met.BytesIn.Add(uint64(len(payload)))
		if len(payload) > 0 && Op(payload[0]) == OpBatch {
			s.readBatch(cn, payload, t0)
			continue
		}
		req := reqPool.Get().(*Request)
		werr := parseRequestInto(req, payload)
		if int(req.Op) < numOps {
			s.met.Requests[req.Op].Add(1)
		}
		if werr != nil {
			s.respondErr(cn, req.ID, werr)
			reqPool.Put(req)
			continue
		}
		// WRITE/TX payload slices alias the read buffer; copy them into
		// the request's own scratch since the worker runs after the
		// reader reuses it.
		req.tr = s.tracer.Begin(uint8(req.Op), t0)
		req.detach()
		req.tr.Mark(reqtrace.StageRead)
		select {
		case s.jobs <- job{cn: cn, req: req}:
		default:
			// Backpressure: the queue is full; make the client retry
			// rather than queueing unbounded work.
			s.tracer.End(req.tr, uint8(StatusRetry), 0)
			req.tr = nil
			s.met.Retries.Add(1)
			cn.send(s, EncodeResponse(&Response{Status: StatusRetry, ID: req.ID}))
			reqPool.Put(req)
		}
	}
}

// readBatch parses one v2 BATCH frame and enqueues it as a single job:
// the whole batch is dispatched by one worker and answered with one
// StatusBatch frame, so a pipelining client pays one network write and
// one read per batch of ops. Any malformed sub-request fails the whole
// batch with one typed error on the batch ID.
func (s *Server) readBatch(cn *conn, payload []byte, t0 time.Time) {
	s.met.Requests[OpBatch].Add(1)
	// The batch ID sits at the fixed header offset; recover it even for
	// payloads the full parse will reject, so the error names the batch.
	var bid uint32
	if len(payload) >= minPayload {
		bid = binary.BigEndian.Uint32(payload[1:])
	}
	cn.stateMu.Lock()
	proto := cn.proto
	cn.stateMu.Unlock()
	if proto < ProtoV2 {
		s.respondErr(cn, bid, wireErr(ErrVersion, "serve: BATCH requires protocol v2 (negotiate in HELLO)"))
		return
	}
	b := batchPool.Get().(*Batch)
	if werr := parseBatchInto(b, payload, getPooledRequest); werr != nil {
		s.respondErr(cn, bid, werr)
		releaseBatch(b)
		return
	}
	for _, req := range b.Reqs {
		s.met.Requests[req.Op].Add(1)
		req.tr = s.tracer.Begin(uint8(req.Op), t0)
		req.detach()
		req.tr.Mark(reqtrace.StageRead)
	}
	select {
	case s.jobs <- job{cn: cn, batch: b}:
	default:
		// Backpressure answers RETRY on the batch ID; the client
		// resubmits the whole batch.
		for _, req := range b.Reqs {
			s.tracer.End(req.tr, uint8(StatusRetry), 0)
			req.tr = nil
		}
		s.met.Retries.Add(1)
		cn.send(s, EncodeResponse(&Response{Status: StatusRetry, ID: b.ID}))
		releaseBatch(b)
	}
}

// dropConn unregisters and closes a connection and evicts its session.
func (s *Server) dropConn(cn *conn, close bool) {
	s.connMu.Lock()
	_, live := s.conns[cn]
	delete(s.conns, cn)
	s.connMu.Unlock()
	if !live {
		return
	}
	if close {
		cn.c.Close()
	}
	cn.stateMu.Lock()
	sid := cn.sid
	cn.sid = 0
	cn.stateMu.Unlock()
	if sid != 0 {
		s.evictSession(sid)
	}
}

// evictSession removes one session, detaching it if needed.
func (s *Server) evictSession(sid uint64) {
	sh := s.shardOf(sid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sess, ok := sh.sessions[sid]
	if !ok {
		return
	}
	if sess.att != nil {
		sh.space.Thread = sess.thread
		sh.space.Detach(sess.pool)
		sess.att = nil
	}
	delete(sh.sessions, sid)
}

func (s *Server) worker() {
	defer s.workersWG.Done()
	w := &workCtx{}
	for jb := range s.jobs {
		if jb.batch != nil {
			s.serveBatch(jb.cn, jb.batch, w)
			continue
		}
		jb.req.tr.Mark(reqtrace.StageQueue)
		start := time.Now()
		resp := s.dispatch(jb.cn, jb.req, w)
		s.met.ObserveLatency(jb.req.Op, uint64(time.Since(start).Nanoseconds()))
		switch resp.Status {
		case StatusOK:
			s.met.OKs.Add(1)
		case StatusErr:
			s.met.CountError(resp.Code)
		}
		// send copies the frame into the connection's buffered writer
		// before returning, so the worker's encode buffer (and the
		// pooled request) are free for the next job.
		w.enc = appendResponse(w.enc[:0], resp)
		jb.cn.send(s, w.enc)
		jb.req.tr.Mark(reqtrace.StageWrite)
		s.tracer.End(jb.req.tr, uint8(resp.Status), uint16(resp.Code))
		jb.req.tr = nil
		reqPool.Put(jb.req)
	}
}

// serveBatch dispatches a batch's sub-requests in order (sub-responses
// still carry correlation IDs, and the protocol permits any order) and
// sends the one StatusBatch frame answering all of them.
func (s *Server) serveBatch(cn *conn, b *Batch, w *workCtx) {
	w.enc = appendBatchRespHeader(w.enc[:0], b.ID, len(b.Reqs))
	for _, req := range b.Reqs {
		req.tr.Mark(reqtrace.StageQueue)
		start := time.Now()
		resp := s.dispatch(cn, req, w)
		s.met.ObserveLatency(req.Op, uint64(time.Since(start).Nanoseconds()))
		switch resp.Status {
		case StatusOK:
			s.met.OKs.Add(1)
		case StatusErr:
			s.met.CountError(resp.Code)
		}
		// The entry copies resp's bytes (which may alias w.data) into the
		// frame under construction before the next dispatch reuses them.
		w.enc = appendBatchRespEntry(w.enc, resp)
		req.tr.Mark(reqtrace.StageWrite)
		s.tracer.End(req.tr, uint8(resp.Status), uint16(resp.Code))
		req.tr = nil
	}
	cn.send(s, w.enc)
	releaseBatch(b)
}

func (s *Server) respondErr(cn *conn, id uint32, werr *WireError) {
	s.met.CountError(werr.Code)
	cn.send(s, EncodeResponse(&Response{Status: StatusErr, ID: id, Code: werr.Code, Msg: werr.Msg}))
}

func errResp(id uint32, code ErrCode, format string, args ...any) *Response {
	return &Response{Status: StatusErr, ID: id, Code: code, Msg: fmt.Sprintf(format, args...)}
}

// dispatch executes one request. Panics cannot reach the connection
// handler: every path validates before touching the pool. Success
// responses are built in the caller's workCtx; only error paths (which
// format a message anyway) allocate.
func (s *Server) dispatch(cn *conn, req *Request, w *workCtx) *Response {
	switch req.Op {
	case OpHello:
		cn.stateMu.Lock()
		if cn.sid != 0 {
			held := cn.sid
			cn.stateMu.Unlock()
			return errResp(req.ID, ErrExists, "serve: HELLO while holding session %d (CLOSE first)", held)
		}
		cn.client = req.Client
		neg := uint8(ProtoV1)
		if req.Proto != 0 {
			neg = req.Proto
			if neg > MaxProto {
				neg = MaxProto
			}
		}
		cn.proto = neg
		cn.stateMu.Unlock()
		if req.Proto == 0 {
			// A v1 HELLO gets the v1 bare OK, so old clients see exactly
			// the old protocol.
			return w.ok(req.ID)
		}
		w.neg[0] = neg
		w.resp = Response{Status: StatusOK, ID: req.ID, Data: w.neg[:]}
		return &w.resp
	case OpStats:
		var b writerBuf
		if err := s.WriteMetrics(&b); err != nil {
			return errResp(req.ID, ErrInternal, "serve: rendering stats: %v", err)
		}
		return &Response{Status: StatusOK, ID: req.ID, Data: b.b}
	case OpTrace:
		if s.tracer == nil {
			return errResp(req.ID, ErrDisabled, "serve: tracing disabled; start pmod with -trace-sample or -trace-slow")
		}
		var b writerBuf
		if err := s.tracer.WriteSpansJSONL(&b); err != nil {
			return errResp(req.ID, ErrInternal, "serve: rendering spans: %v", err)
		}
		return &Response{Status: StatusOK, ID: req.ID, Data: b.b}
	}

	cn.stateMu.Lock()
	client, sid := cn.client, cn.sid
	cn.stateMu.Unlock()
	if client == "" {
		return errResp(req.ID, ErrNoHello, "serve: HELLO required before %s", req.Op)
	}

	if req.Op == OpOpen {
		return s.doOpen(cn, client, sid, req, w)
	}

	if sid == 0 {
		return errResp(req.ID, ErrNoSession, "serve: OPEN required before %s", req.Op)
	}
	sh := s.shardOf(sid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	req.tr.Mark(reqtrace.StageLock)
	req.tr.SetSID(sid)
	sess, ok := sh.sessions[sid]
	if !ok {
		// Idle-evicted between requests: tell the client to re-OPEN.
		cn.stateMu.Lock()
		cn.sid = 0
		cn.stateMu.Unlock()
		return errResp(req.ID, ErrEvicted, "serve: session %d evicted; re-OPEN", sid)
	}
	sess.lastUsed.Store(time.Now().UnixNano())
	sh.space.Thread = sess.thread

	switch req.Op {
	case OpAttach:
		return s.doAttach(sh, sess, req, w)
	case OpRead:
		return s.doRead(sh, sess, req, w)
	case OpWrite:
		return s.doWrite(sh, sess, req, w)
	case OpTxCommit:
		return s.doTx(sh, sess, req, w)
	case OpDetach:
		if sess.att == nil {
			return errResp(req.ID, ErrNotAttached, "serve: session not attached")
		}
		if err := sh.space.Detach(sess.pool); err != nil {
			return errResp(req.ID, ErrInternal, "serve: detach: %v", err)
		}
		sess.att = nil
		s.met.Detaches.Add(1)
		return w.ok(req.ID)
	case OpClose:
		// End the session but keep the connection: the caller (typically
		// the cluster router returning an upstream conn to its pool) can
		// HELLO again as a different client and OPEN a new session.
		if sess.att != nil {
			sh.space.Detach(sess.pool)
			sess.att = nil
			s.met.Detaches.Add(1)
		}
		delete(sh.sessions, sid)
		cn.stateMu.Lock()
		if cn.sid == sid {
			cn.sid = 0
		}
		cn.stateMu.Unlock()
		s.met.Closes.Add(1)
		return w.ok(req.ID)
	}
	return errResp(req.ID, ErrBadOp, "serve: unhandled op %d", req.Op)
}

// doOpen opens or creates the client's session pool. Pools are created
// owner-only (no "other" mode bits), so the store's namespace permission
// check denies every cross-client OPEN.
func (s *Server) doOpen(cn *conn, client string, sid uint64, req *Request, w *workCtx) *Response {
	if sid != 0 {
		return errResp(req.ID, ErrExists, "serve: connection already holds session %d", sid)
	}
	size := req.Size
	if size == 0 {
		size = s.opts.DefaultPoolSize
	}
	pool, err := s.store.Open(req.Name, client, true)
	if err != nil {
		created, cerr := s.store.Create(req.Name, size, pmo.ModeOwnerRead|pmo.ModeOwnerWrite, client)
		if cerr != nil {
			// The pool exists but this client may not write it — the
			// cross-client case reports the open denial, not the
			// create collision.
			return errResp(req.ID, ErrDenied, "serve: open %q: %v", req.Name, err)
		}
		pool = created
	}
	nsid := s.nextSID.Add(1)
	sh := s.shardOf(nsid)
	sess := &session{id: nsid, client: client, pool: pool}
	sess.lastUsed.Store(time.Now().UnixNano())
	sh.mu.Lock()
	req.tr.Mark(reqtrace.StageLock)
	sess.thread = sh.nextThread
	sh.nextThread++
	sh.sessions[nsid] = sess
	sh.mu.Unlock()
	req.tr.SetSID(nsid)
	cn.stateMu.Lock()
	if cn.sid != 0 {
		// A concurrently pipelined OPEN won; retract this session.
		held := cn.sid
		cn.stateMu.Unlock()
		s.evictSession(nsid)
		return errResp(req.ID, ErrExists, "serve: connection already holds session %d", held)
	}
	cn.sid = nsid
	cn.stateMu.Unlock()
	s.met.Opens.Add(1)
	w.resp = Response{Status: StatusOK, ID: req.ID, SID: nsid}
	return &w.resp
}

func (s *Server) doAttach(sh *shard, sess *session, req *Request, w *workCtx) *Response {
	if sess.att != nil {
		return errResp(req.ID, ErrExists, "serve: session already attached")
	}
	perm := core.PermR
	if req.Writable {
		perm = core.PermRW
	}
	att, err := sh.space.Attach(sess.pool, perm, "")
	if err != nil {
		// Exclusive-writer conflicts and engine capacity limits (e.g.
		// MPK running out of protection keys) surface here as typed
		// denials the client can act on.
		return errResp(req.ID, ErrDenied, "serve: attach: %v", err)
	}
	sess.att = att
	s.met.Attaches.Add(1)
	return w.ok(req.ID)
}

// window runs fn inside a least-privilege SETPERM window: the session's
// thread gets perm on its own domain for exactly one request, then drops
// back to no access. Every other session's domain stays inaccessible
// throughout, so a compromised handler touching a foreign attachment
// faults in the engine.
func (s *Server) window(sh *shard, sess *session, perm core.Perm, fn func()) {
	sh.space.SetPerm(sess.pool, perm, serverSite)
	fn()
	sh.space.SetPerm(sess.pool, core.PermNone, serverSite)
}

func (s *Server) checkSpan(sess *session, id uint32, off, n uint32) *Response {
	if n > MaxIO {
		return errResp(id, ErrTooLarge, "serve: span %d over limit %d", n, MaxIO)
	}
	end := uint64(off) + uint64(n)
	if end > sess.pool.Size() {
		return errResp(id, ErrRange, "serve: [%d,%d) outside pool of size %d", off, end, sess.pool.Size())
	}
	return nil
}

func (s *Server) doRead(sh *shard, sess *session, req *Request, w *workCtx) *Response {
	if sess.att == nil {
		return errResp(req.ID, ErrNotAttached, "serve: ATTACH required before READ")
	}
	if r := s.checkSpan(sess, req.ID, req.Off, req.Len); r != nil {
		return r
	}
	if cap(w.data) < int(req.Len) {
		w.data = make([]byte, req.Len)
	}
	data := w.data[:req.Len]
	s.window(sh, sess, core.PermR, func() {
		sess.att.Read(req.Off, data)
	})
	req.tr.Mark(reqtrace.StageEngine)
	req.tr.AddBytes(req.Len)
	s.met.ReadData.Add(uint64(len(data)))
	w.resp = Response{Status: StatusOK, ID: req.ID, Data: data}
	return &w.resp
}

func (s *Server) doWrite(sh *shard, sess *session, req *Request, w *workCtx) *Response {
	if sess.att == nil {
		return errResp(req.ID, ErrNotAttached, "serve: ATTACH required before WRITE")
	}
	if !sess.att.Perm.CanWrite() {
		return errResp(req.ID, ErrDenied, "serve: session attached read-only")
	}
	if r := s.checkSpan(sess, req.ID, req.Off, uint32(len(req.Data))); r != nil {
		return r
	}
	s.window(sh, sess, core.PermRW, func() {
		sess.att.Write(req.Off, req.Data)
	})
	req.tr.Mark(reqtrace.StageEngine)
	req.tr.AddBytes(uint32(len(req.Data)))
	s.met.WroteData.Add(uint64(len(req.Data)))
	return w.ok(req.ID)
}

func (s *Server) doTx(sh *shard, sess *session, req *Request, w *workCtx) *Response {
	if sess.att == nil {
		return errResp(req.ID, ErrNotAttached, "serve: ATTACH required before TX_COMMIT")
	}
	if !sess.att.Perm.CanWrite() {
		return errResp(req.ID, ErrDenied, "serve: session attached read-only")
	}
	for _, tw := range req.Tx {
		if r := s.checkSpan(sess, req.ID, tw.Off, uint32(len(tw.Data))); r != nil {
			return r
		}
	}
	var txErr error
	s.window(sh, sess, core.PermRW, func() {
		tx, err := txn.Begin(sess.pool)
		if err != nil {
			txErr = err
			return
		}
		for _, tw := range req.Tx {
			if err := tx.Write(tw.Off, tw.Data); err != nil {
				tx.Abort()
				txErr = err
				return
			}
		}
		// Staging the redo log is engine-window work; the durable
		// commit (log replay + fences) is the persist stage.
		req.tr.Mark(reqtrace.StageEngine)
		txErr = tx.Commit()
		req.tr.Mark(reqtrace.StagePersist)
	})
	req.tr.Mark(reqtrace.StageEngine) // window close
	if txErr != nil {
		return errResp(req.ID, ErrTx, "serve: tx: %v", txErr)
	}
	var n uint64
	for _, tw := range req.Tx {
		n += uint64(len(tw.Data))
	}
	req.tr.AddBytes(uint32(n))
	s.met.WroteData.Add(n)
	s.met.TxCommits.Add(1)
	return w.ok(req.ID)
}

// janitor evicts idle sessions and periodically syncs a file-backed
// store.
func (s *Server) janitor() {
	defer s.janitorWG.Done()
	tick := s.opts.IdleTimeout / 4
	if tick <= 0 || tick > s.opts.SyncEvery {
		tick = s.opts.SyncEvery
	}
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	var lastSync time.Time
	for {
		select {
		case <-s.janitorCh:
			return
		case now := <-t.C:
			if s.opts.IdleTimeout > 0 {
				cutoff := now.Add(-s.opts.IdleTimeout).UnixNano()
				for _, sh := range s.shards {
					sh.mu.Lock()
					for sid, sess := range sh.sessions {
						if sess.lastUsed.Load() < cutoff {
							if sess.att != nil {
								sh.space.Thread = sess.thread
								sh.space.Detach(sess.pool)
								sess.att = nil
							}
							delete(sh.sessions, sid)
							s.met.Evictions.Add(1)
						}
					}
					sh.mu.Unlock()
				}
			}
			if s.store.Dir() != "" && now.Sub(lastSync) >= s.opts.SyncEvery {
				s.store.Sync()
				lastSync = now
			}
		}
	}
}

// Shutdown drains the server gracefully: stop accepting, stop reading,
// finish every queued request, flush responses, evict sessions, and
// persist the store. It is idempotent; ctx bounds the wait.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	// Pop readers out of blocking reads; they observe draining and exit
	// without closing their connections, so queued responses still land.
	s.connMu.Lock()
	if s.lis != nil {
		s.lis.Close()
	}
	for cn := range s.conns {
		cn.c.SetReadDeadline(time.Now())
	}
	s.connMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.readersWG.Wait()
		if s.started.Load() {
			close(s.jobs) // workers finish all queued requests, then exit
			s.workersWG.Wait()
			close(s.janitorCh)
			s.janitorWG.Wait()
		}
		s.connMu.Lock()
		for cn := range s.conns {
			cn.c.Close()
			delete(s.conns, cn)
		}
		s.connMu.Unlock()
		for _, sh := range s.shards {
			sh.mu.Lock()
			for sid, sess := range sh.sessions {
				if sess.att != nil {
					sh.space.Thread = sess.thread
					sh.space.Detach(sess.pool)
					sess.att = nil
				}
				delete(sh.sessions, sid)
			}
			sh.mu.Unlock()
		}
		close(done)
	}()
	select {
	case <-done:
		// Captures close after the final detach events above, so the
		// recorded stream ends balanced; their I/O errors surface
		// alongside the store sync.
		var capErr error
		for _, sh := range s.shards {
			if sh.capture != nil {
				capErr = errors.Join(capErr, sh.capture.Close())
			}
		}
		return errors.Join(s.store.Sync(), capErr)
	case <-ctx.Done():
		return ctx.Err()
	}
}

// writerBuf is a minimal io.Writer over a byte slice.
type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}
