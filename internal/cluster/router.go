package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"domainvirt/internal/serve"
)

// Options configures a Router. Zero values get the documented defaults.
type Options struct {
	// Backends are the pmod node addresses. Order does not affect
	// placement (rendezvous hashing scores each node independently) but
	// the list contents do: every router replica must be configured with
	// the same set or replicas will disagree on ownership.
	Backends []string

	// DialTimeout bounds one upstream dial attempt. Default 2s.
	DialTimeout time.Duration
	// DialRetries is how many times a failed upstream dial is retried
	// (transient failures only; a saturated backend answers RETRY
	// immediately). Default 2.
	DialRetries int
	// DialBackoff is the sleep before the first dial retry, doubling per
	// attempt. Default 50ms.
	DialBackoff time.Duration
	// IOTimeout bounds each relayed round trip's upstream I/O and the
	// CLOSE-drain when recycling a conn. Default 30s; negative disables.
	IOTimeout time.Duration

	// MaxConnsPerBackend caps leased+idle upstream conns per backend;
	// past it new sessions get RETRY. 0 = unlimited.
	MaxConnsPerBackend int
	// MaxIdlePerBackend caps the per-backend idle pool. Default 64.
	MaxIdlePerBackend int

	// HealthEvery is the probe interval per backend. Default 1s;
	// negative disables probing (backends start healthy and stay so).
	HealthEvery time.Duration
	// FailAfter is how many consecutive probe failures mark a backend
	// down. Default 2 (one lost probe must not unroute live keys).
	FailAfter int

	// Logf, when set, receives health transitions and teardown notes.
	Logf func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	opts := *o
	if opts.DialTimeout == 0 {
		opts.DialTimeout = 2 * time.Second
	}
	if opts.DialRetries == 0 {
		opts.DialRetries = 2
	}
	if opts.DialBackoff == 0 {
		opts.DialBackoff = 50 * time.Millisecond
	}
	if opts.IOTimeout == 0 {
		opts.IOTimeout = 30 * time.Second
	} else if opts.IOTimeout < 0 {
		opts.IOTimeout = 0
	}
	if opts.MaxIdlePerBackend == 0 {
		opts.MaxIdlePerBackend = 64
	}
	if opts.HealthEvery == 0 {
		opts.HealthEvery = time.Second
	}
	if opts.FailAfter == 0 {
		opts.FailAfter = 2
	}
	return opts
}

// healthProbeName is the client identity health probes HELLO with; it
// never OPENs a pool, so it cannot collide with a real client namespace.
const healthProbeName = "pmorouter-health"

// Router proxies the pmod wire protocol onto a set of backends. It
// terminates HELLO itself (recording identity and negotiating the
// protocol version), routes each OPEN to the pool's rendezvous owner,
// and from then on relays frames — including v2 BATCH containers —
// verbatim, so the data path adds one frame copy and no re-encoding.
type Router struct {
	opts     Options
	addrs    []string // routing list: all configured backends, health-independent
	backends []*backend
	met      RouterMetrics

	connMu   sync.Mutex
	lis      net.Listener
	conns    map[net.Conn]struct{}
	draining atomic.Bool
	started  atomic.Bool

	readersWG sync.WaitGroup
	healthWG  sync.WaitGroup
	stop      chan struct{}
}

// NewRouter builds a router over opts.Backends.
func NewRouter(opts Options) (*Router, error) {
	if len(opts.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	seen := make(map[string]bool, len(opts.Backends))
	r := &Router{
		opts:  opts.withDefaults(),
		conns: make(map[net.Conn]struct{}),
		stop:  make(chan struct{}),
	}
	for _, addr := range opts.Backends {
		if addr == "" || seen[addr] {
			return nil, fmt.Errorf("cluster: empty or duplicate backend %q", addr)
		}
		seen[addr] = true
		b := &backend{addr: addr}
		// Start healthy: a router restart must not blackhole every pool
		// for the first probe interval.
		b.healthy.Store(true)
		r.addrs = append(r.addrs, addr)
		r.backends = append(r.backends, b)
	}
	return r, nil
}

// Metrics exposes the router's live counters.
func (r *Router) Metrics() *RouterMetrics { return &r.met }

// WriteMetrics renders the router snapshot (plus per-backend series) in
// Prometheus text format — the same payload a pre-session STATS gets.
func (r *Router) WriteMetrics(w io.Writer) error { return r.met.writePrometheus(w, r.backends) }

// Backends returns the configured routing list.
func (r *Router) Backends() []string { return r.addrs }

// Healthy reports how many backends the probe loop currently sees up.
func (r *Router) Healthy() int {
	n := 0
	for _, b := range r.backends {
		if b.healthy.Load() {
			n++
		}
	}
	return n
}

func (r *Router) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// Serve accepts downstream connections until Shutdown (returns nil) or
// a listener error. Health probing starts on first call.
func (r *Router) Serve(lis net.Listener) error {
	r.connMu.Lock()
	r.lis = lis
	draining := r.draining.Load()
	r.connMu.Unlock()
	if draining {
		lis.Close()
		return nil
	}
	if r.started.CompareAndSwap(false, true) && r.opts.HealthEvery > 0 {
		for _, b := range r.backends {
			r.healthWG.Add(1)
			go r.healthLoop(b)
		}
	}
	for {
		c, err := lis.Accept()
		if err != nil {
			if r.draining.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		r.connMu.Lock()
		if r.draining.Load() {
			r.connMu.Unlock()
			c.Close()
			continue
		}
		r.conns[c] = struct{}{}
		r.connMu.Unlock()
		r.met.Conns.Add(1)
		r.met.ActiveConns.Add(1)
		r.readersWG.Add(1)
		go r.serveConn(c)
	}
}

// Shutdown drains the router: stop accepting, pop readers out of their
// blocking reads, CLOSE-drain every live upstream session, and close
// the backend pools. Idempotent; ctx bounds the wait.
func (r *Router) Shutdown(ctx context.Context) error {
	if !r.draining.CompareAndSwap(false, true) {
		return nil
	}
	r.connMu.Lock()
	if r.lis != nil {
		r.lis.Close()
	}
	for c := range r.conns {
		c.SetReadDeadline(time.Now())
	}
	r.connMu.Unlock()
	if r.started.Load() {
		close(r.stop)
	}

	done := make(chan struct{})
	go func() {
		r.readersWG.Wait()
		r.healthWG.Wait()
		for _, b := range r.backends {
			b.close()
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Force the stragglers: closing the sockets pops any relay I/O.
		r.connMu.Lock()
		for c := range r.conns {
			c.Close()
		}
		r.connMu.Unlock()
		return ctx.Err()
	}
}

// healthLoop probes one backend until Shutdown.
func (r *Router) healthLoop(b *backend) {
	defer r.healthWG.Done()
	tick := time.NewTicker(r.opts.HealthEvery)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
		}
		err := b.probe(healthProbeName, r.opts.DialTimeout, r.opts.IOTimeout)
		if b.observeProbe(err, r.opts.FailAfter) {
			if err != nil {
				r.logf("cluster: backend %s down (%v); its pools are UNAVAILABLE until it returns", b.addr, err)
			} else {
				r.logf("cluster: backend %s back up", b.addr)
			}
		}
	}
}

// lease gets an upstream conn to b, retrying transient dial failures
// with doubling backoff. A saturated pool is not retried — the caller
// turns errBackendSaturated into RETRY so the client backs off instead
// of the router queueing.
func (r *Router) lease(b *backend) (*upstream, error) {
	backoff := r.opts.DialBackoff
	for attempt := 0; ; attempt++ {
		u, err := b.lease(r.opts.DialTimeout, r.opts.MaxConnsPerBackend)
		if err == nil || errors.Is(err, errBackendSaturated) || attempt >= r.opts.DialRetries {
			return u, err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// recycle returns a session-holding upstream to its pool by CLOSEing
// the session first (on an ID above every relayed one, so the response
// is unambiguous). A conn that cannot be drained is discarded — reuse
// must never leak one session's state into the next lease.
func (r *Router) recycle(u *upstream, b *backend, maxID uint32) {
	closeID := maxID + 1
	if closeID == 0 {
		closeID = 1
	}
	if r.opts.IOTimeout > 0 {
		u.c.SetDeadline(time.Now().Add(r.opts.IOTimeout))
	}
	frame := serve.EncodeRequest(&serve.Request{Op: serve.OpClose, ID: closeID})
	ok := false
	if serve.WriteFrame(u.bw, frame) == nil && u.bw.Flush() == nil {
		if resp, err := serve.ReadFrame(u.br, nil); err == nil &&
			len(resp) >= 5 &&
			serve.Status(resp[0]) == serve.StatusOK &&
			binary.BigEndian.Uint32(resp[1:5]) == closeID {
			ok = true
		}
	}
	u.c.SetDeadline(time.Time{})
	if !ok {
		r.met.DrainFail.Add(1)
		b.discard(u)
		return
	}
	r.met.DrainOK.Add(1)
	b.put(u, r.opts.MaxIdlePerBackend)
}

// proxyConn is the per-downstream-connection state machine. The relay
// is serial — one request (or batch) frame in, one response frame out —
// which the protocol guarantees is lossless: every request frame,
// including a BATCH container, produces exactly one response frame.
type proxyConn struct {
	r  *Router
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	name    string // client identity from HELLO ("" = not helloed)
	proto   uint8
	maxID   uint32 // highest request ID relayed; recycle CLOSEs above it
	rbuf    []byte // downstream frame buffer
	ubuf    []byte // upstream response buffer
	scratch []byte // local response encode buffer

	u *upstream // nil when no session is routed
	b *backend
}

func (r *Router) serveConn(c net.Conn) {
	defer r.readersWG.Done()
	p := &proxyConn{r: r, c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}
	p.run()
	if p.u != nil {
		r.met.ActiveSessions.Add(-1)
		r.recycle(p.u, p.b, p.maxID)
		p.u = nil
	}
	c.Close()
	r.connMu.Lock()
	delete(r.conns, c)
	r.connMu.Unlock()
	r.met.ActiveConns.Add(-1)
}

// run processes frames until the client disconnects, a downstream write
// fails, or the router drains.
func (p *proxyConn) run() {
	for {
		payload, err := serve.ReadFrame(p.br, p.rbuf)
		if err != nil {
			if serve.FrameTooLarge(err) {
				// Best-effort typed answer before dropping; the stream
				// cannot be resynchronized past an oversized frame.
				p.respondErr(0, serve.ErrTooLarge, err.Error())
			}
			return
		}
		p.rbuf = payload[:cap(payload)]
		if p.r.draining.Load() {
			return
		}
		if len(payload) < 5 {
			p.respondErr(0, serve.ErrBadFrame, "cluster: short request payload")
			return
		}
		op := serve.Op(payload[0])
		id := binary.BigEndian.Uint32(payload[1:5])
		if id > p.maxID {
			p.maxID = id
		}
		var ok bool
		if p.u == nil {
			ok = p.dispatchLocal(op, id, payload)
		} else {
			ok = p.dispatchRelay(op, id, payload)
		}
		if !ok {
			return
		}
	}
}

// dispatchLocal handles a frame with no routed session. Reports whether
// the connection should keep going.
func (p *proxyConn) dispatchLocal(op serve.Op, id uint32, payload []byte) bool {
	switch op {
	case serve.OpHello:
		req, werr := serve.ParseRequest(payload)
		if werr != nil {
			return p.respondWireErr(id, werr)
		}
		p.name = req.Client
		p.proto = serve.ProtoV1
		if req.Proto != 0 {
			p.proto = req.Proto
			if p.proto > serve.MaxProto {
				p.proto = serve.MaxProto
			}
		}
		p.r.met.Hellos.Add(1)
		if req.Proto == 0 {
			return p.respond(&serve.Response{Status: serve.StatusOK, ID: id})
		}
		return p.respond(&serve.Response{Status: serve.StatusOK, ID: id, Data: []byte{p.proto}})
	case serve.OpOpen:
		if p.name == "" {
			return p.respondErr(id, serve.ErrNoHello, "serve: HELLO required before open")
		}
		req, werr := serve.ParseRequest(payload)
		if werr != nil {
			return p.respondWireErr(id, werr)
		}
		return p.openSession(req.Name, id, payload)
	case serve.OpStats:
		var buf statsBuf
		p.r.met.writePrometheus(&buf, p.r.backends)
		return p.respond(&serve.Response{Status: serve.StatusOK, ID: id, Data: buf.b})
	case serve.OpTrace:
		return p.respondErr(id, serve.ErrDisabled, "cluster: router keeps no spans; TRACE a backend through a session")
	case serve.OpBatch:
		p.r.met.LocalErrs.Add(1)
		return p.respondErr(id, serve.ErrNoSession, "serve: OPEN required before batch")
	default:
		p.r.met.LocalErrs.Add(1)
		if p.name == "" {
			return p.respondErr(id, serve.ErrNoHello, fmt.Sprintf("serve: HELLO required before %s", op))
		}
		return p.respondErr(id, serve.ErrNoSession, fmt.Sprintf("serve: OPEN required before %s", op))
	}
}

// openSession routes pool to its rendezvous owner and establishes the
// upstream session by replaying the client's identity and the original
// OPEN frame. No failover: a down owner is a typed UNAVAILABLE, because
// any other backend would serve an empty pool in its place — silent
// data loss dressed up as liveness.
func (p *proxyConn) openSession(pool string, id uint32, payload []byte) bool {
	r := p.r
	b := r.backends[PickIndex(pool, r.addrs)]
	if !b.healthy.Load() {
		r.met.Unavailable.Add(1)
		return p.respondErr(id, serve.ErrUnavailable,
			fmt.Sprintf("cluster: backend %s owns pool %q but is down; retry after it recovers", b.addr, pool))
	}
	u, err := r.lease(b)
	if errors.Is(err, errBackendSaturated) {
		r.met.Retries.Add(1)
		return p.respond(&serve.Response{Status: serve.StatusRetry, ID: id})
	}
	if err == nil {
		err = u.hello(p.name, r.opts.IOTimeout)
		if err != nil {
			b.discard(u)
		}
	}
	if err != nil {
		r.met.Unavailable.Add(1)
		return p.respondErr(id, serve.ErrUnavailable,
			fmt.Sprintf("cluster: backend %s unreachable for pool %q: %v", b.addr, pool, err))
	}
	resp, err := p.relay(u, payload)
	if err != nil {
		b.relayFail.Add(1)
		b.discard(u)
		r.met.Unavailable.Add(1)
		return p.respondErr(id, serve.ErrUnavailable,
			fmt.Sprintf("cluster: backend %s failed during OPEN of pool %q: %v", b.addr, pool, err))
	}
	if serve.Status(resp[0]) == serve.StatusOK {
		p.u, p.b = u, b
		b.opens.Add(1)
		r.met.Sessions.Add(1)
		r.met.ActiveSessions.Add(1)
	} else {
		// OPEN denied (wrong owner name, draining backend, ...): the
		// upstream conn is still session-free, so pool it.
		b.put(u, r.opts.MaxIdlePerBackend)
	}
	return p.writeFrame(resp)
}

// dispatchRelay handles a frame while a session is routed.
func (p *proxyConn) dispatchRelay(op serve.Op, id uint32, payload []byte) bool {
	switch op {
	case serve.OpHello:
		// Terminated locally even mid-session (the backend would say the
		// same thing): identity changes require CLOSE first.
		p.r.met.LocalErrs.Add(1)
		return p.respondErr(id, serve.ErrExists, "serve: HELLO while holding a session (CLOSE first)")
	case serve.OpOpen:
		p.r.met.LocalErrs.Add(1)
		return p.respondErr(id, serve.ErrExists, "serve: connection already holds a session")
	case serve.OpBatch:
		if serve.BatchHasSessionOp(payload) {
			p.r.met.LocalErrs.Add(1)
			return p.respondErr(id, serve.ErrBadFrame,
				"cluster: OPEN/CLOSE inside a batch cannot be routed; send them as scalar frames")
		}
		p.r.met.RelayedBatches.Add(1)
	}
	resp, err := p.relay(p.u, payload)
	if err != nil {
		// The backend died mid-session. The session is gone with it;
		// answer typed UNAVAILABLE and fall back to the pre-session
		// state so the client can re-OPEN (routing will re-pick, and
		// rendezvous sends it back to the same — now restarted — owner).
		p.b.relayFail.Add(1)
		p.b.discard(p.u)
		p.r.met.ActiveSessions.Add(-1)
		p.r.met.Unavailable.Add(1)
		addr := p.b.addr
		p.u, p.b = nil, nil
		return p.respondErr(id, serve.ErrUnavailable,
			fmt.Sprintf("cluster: backend %s failed mid-session: %v", addr, err))
	}
	if op == serve.OpClose && serve.Status(resp[0]) == serve.StatusOK {
		// Session ended by the client; the upstream conn is session-free
		// and reusable immediately. Identity survives (as on the server),
		// so the next OPEN re-routes by pool name.
		p.b.put(p.u, p.r.opts.MaxIdlePerBackend)
		p.r.met.ActiveSessions.Add(-1)
		p.u, p.b = nil, nil
	}
	return p.writeFrame(resp)
}

// relay forwards one frame upstream and reads its one response frame,
// under the router's I/O timeout.
func (p *proxyConn) relay(u *upstream, payload []byte) ([]byte, error) {
	p.r.met.Relayed.Add(1)
	if p.r.opts.IOTimeout > 0 {
		u.c.SetDeadline(time.Now().Add(p.r.opts.IOTimeout))
		defer u.c.SetDeadline(time.Time{})
	}
	if err := serve.WriteFrame(u.bw, payload); err != nil {
		return nil, err
	}
	if err := u.bw.Flush(); err != nil {
		return nil, err
	}
	resp, err := serve.ReadFrame(u.br, p.ubuf)
	if err != nil {
		return nil, err
	}
	p.ubuf = resp[:cap(resp)]
	if len(resp) < 5 {
		return nil, errors.New("cluster: short response frame from backend")
	}
	return resp, nil
}

// writeFrame sends one response frame downstream; false ends the conn.
func (p *proxyConn) writeFrame(payload []byte) bool {
	if err := serve.WriteFrame(p.bw, payload); err != nil {
		return false
	}
	return p.bw.Flush() == nil
}

func (p *proxyConn) respond(resp *serve.Response) bool {
	p.scratch = serve.AppendResponse(p.scratch[:0], resp)
	return p.writeFrame(p.scratch)
}

func (p *proxyConn) respondErr(id uint32, code serve.ErrCode, msg string) bool {
	return p.respond(&serve.Response{Status: serve.StatusErr, ID: id, Code: code, Msg: msg})
}

func (p *proxyConn) respondWireErr(id uint32, werr *serve.WireError) bool {
	p.r.met.LocalErrs.Add(1)
	return p.respondErr(id, werr.Code, werr.Msg)
}

// statsBuf is a minimal append-only io.Writer for rendering metrics.
type statsBuf struct{ b []byte }

func (s *statsBuf) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}
