package main

import (
	"net"
	"sort"
	"sync"

	"domainvirt/internal/serve"
)

// A traced stack's listeners log, per accepted connection, when each
// request frame's first bytes were read and when its reply was handed
// to the socket: the server's residency for that frame.
// Clients are closed loops, so a connection holds at most one frame in
// flight and a reply always closes the frame before it.

type frame struct {
	in, out int64 // tracer time
	op      serve.Op
}

// connLog collects the frame logs of one listener's connections.
type connLog struct {
	t     *tracer
	mu    sync.Mutex
	conns []*logConn
}

type logListener struct {
	net.Listener
	log *connLog
}

func (l *logListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	lc := &logConn{Conn: c, t: l.log.t}
	l.log.mu.Lock()
	l.log.conns = append(l.log.conns, lc)
	l.log.mu.Unlock()
	return lc, nil
}

// logConn is an accepted connection whose reads and writes are stamped.
// The server reads on one goroutine and writes on others, hence the
// lock.
type logConn struct {
	net.Conn
	t       *tracer
	mu      sync.Mutex
	pending bool
	cur     frame
	frames  []frame
}

func (c *logConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := c.t.now()
		c.mu.Lock()
		if !c.pending {
			c.pending = true
			c.cur = frame{in: now}
			if n > 4 { // 4-byte length prefix, then the opcode
				c.cur.op = serve.Op(p[4])
			}
		}
		c.mu.Unlock()
	}
	return n, err
}

// Write closes the pending frame as the reply is handed to the socket,
// before the peer can possibly have it, so the next request's read
// always opens a new frame.
func (c *logConn) Write(p []byte) (int, error) {
	now := c.t.now()
	c.mu.Lock()
	if c.pending {
		c.cur.out = now
		c.frames = append(c.frames, c.cur)
		c.pending = false
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// snapshot returns each connection's remote address and frames.
func (l *connLog) snapshot() (addrs []string, frames [][]frame) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.mu.Lock()
		addrs = append(addrs, c.RemoteAddr().String())
		frames = append(frames, append([]frame(nil), c.frames...))
		c.mu.Unlock()
	}
	return addrs, frames
}

// containing returns the span among sorted (by start, non-overlapping)
// that contains [in, out], or -1.
func containing(spans []span, idx []int32, in, out int64) int32 {
	i := sort.Search(len(idx), func(i int) bool { return spans[idx[i]].start > in }) - 1
	if i < 0 {
		return -1
	}
	if s := spans[idx[i]]; out <= s.end {
		return idx[i]
	}
	return -1
}

// link hangs the frames of the tier the lanes dial (the pmod, or the
// router) under the client call each belongs to. Every data call must
// hold exactly one frame; session calls may hold several. It returns
// each lane's new spans in start order.
func link(t *tracer, lanes []*lane, log *connLog, name uint16, out *output) [][]int32 {
	addrs, frames := log.snapshot()
	added := make([][]int32, len(lanes))
	for li, l := range lanes {
		local := l.conn.LocalAddr().String()
		var fs []frame
		for i, a := range addrs {
			if a == local {
				fs = frames[i]
			}
		}
		perCall := make(map[int32]int)
		for _, f := range fs {
			p := containing(l.rec.spans, l.calls, f.in, f.out)
			if p < 0 {
				continue // warm-up or session set-up, before the timed phase
			}
			perCall[p]++
			added[li] = append(added[li], l.rec.add(name, p, l.rec.spans[p].ref, f.in, f.out))
		}
		bad := 0
		for _, c := range l.calls {
			if l.rec.spans[c].name != l.nSess && perCall[c] != 1 {
				bad++
			}
		}
		if bad > 0 {
			out.fail("lane %d: %d of %d client calls do not hold exactly one %s frame", l.id, bad, len(l.calls), t.names[name])
		}
	}
	return added
}

// linkBackends hangs the pmod frames of a cluster run under the router
// frame that relayed them. The router leases an upstream connection to
// one client connection per session, so each run of frames up to a
// CLOSE belongs to one lane: the lane whose router frames contain most
// of them. Frames no lane contains (health probes, drains at shutdown)
// stay out. It returns the summed residency of linked BATCH frames and
// their count.
func linkBackends(t *tracer, lanes []*lane, routerSpans [][]int32, logs []*connLog, name uint16) (float64, int64) {
	var batchNS float64
	var batches int64
	for _, log := range logs {
		_, frames := log.snapshot()
		for _, fs := range frames {
			for len(fs) > 0 {
				n := 0
				for n < len(fs) && fs[n].op != serve.OpClose {
					n++
				}
				if n < len(fs) {
					n++ // the CLOSE ends the session's run
				}
				group := fs[:n]
				fs = fs[n:]
				best, votes := -1, 0
				for li, l := range lanes {
					v := 0
					for _, f := range group {
						if containing(l.rec.spans, routerSpans[li], f.in, f.out) >= 0 {
							v++
						}
					}
					if v > votes {
						best, votes = li, v
					}
				}
				if best < 0 {
					continue
				}
				l := lanes[best]
				for _, f := range group {
					p := containing(l.rec.spans, routerSpans[best], f.in, f.out)
					if p < 0 {
						continue
					}
					l.rec.add(name, p, l.rec.spans[p].ref, f.in, f.out)
					if f.op == serve.OpBatch {
						batchNS += float64(f.out - f.in)
						batches++
					}
				}
			}
		}
	}
	return batchNS, batches
}
