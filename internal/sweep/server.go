package sweep

import (
	"fmt"
	"io"
	"net"
	"sync"
)

// Server is the worker side of the sweep protocol: it accepts
// coordinator connections and executes RUN frames through its Runner.
// One cell runs at a time per connection; a coordinator that wants
// parallelism across a worker's cores opens several connections.
type Server struct {
	// Run executes one cell. Required.
	Run Runner
	// Log, when non-nil, receives one line per served cell.
	Log func(format string, args ...any)

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  bool
}

func (s *Server) logf(format string, args ...any) {
	if s.Log != nil {
		s.Log(format, args...)
	}
}

// Serve accepts connections on l until Close (or a listener error).
func (s *Server) Serve(l net.Listener) error {
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.done
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.conns == nil {
			s.conns = make(map[net.Conn]struct{})
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// Close terminates every live connection; a Serve loop running on a
// closed listener then returns nil.
func (s *Server) Close() {
	s.mu.Lock()
	s.done = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

func (s *Server) drop(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

// serveConn runs the per-connection protocol loop: HELLO exchange, then
// RUN frames answered by RESULT/ERROR, with NEEDSNAP/SNAP sub-exchanges
// initiated by the runner mid-cell. A malformed frame or a panicking
// runner tears down this connection only — never the daemon — and the
// coordinator re-runs the lost cell locally.
func (s *Server) serveConn(c net.Conn) {
	defer s.drop(c)
	defer func() {
		if r := recover(); r != nil {
			s.logf("pmoworker: connection torn down by cell panic: %v", r)
		}
	}()
	p, err := readFrame(c)
	if err != nil {
		return
	}
	if err := checkHello(p); err != nil {
		s.logf("pmoworker: handshake failed: %v", err)
		return
	}
	if err := writeFrame(c, helloFrame()); err != nil {
		return
	}
	fetch := func(key string) ([]byte, bool) {
		if err := writeFrame(c, needSnapFrame(key)); err != nil {
			return nil, false
		}
		p, err := readFrame(c)
		if err != nil {
			return nil, false
		}
		return decodeSnap(p)
	}
	for {
		p, err := readFrame(c)
		if err != nil {
			return // coordinator done (or connection lost)
		}
		id, spec, err := decodeRun(p)
		if err != nil {
			s.logf("pmoworker: %v", err)
			return
		}
		payload, runErr := s.Run(spec, fetch)
		if runErr != nil {
			s.logf("pmoworker: cell %d failed: %v", id, runErr)
			if err := writeFrame(c, errorFrame(id, runErr.Error())); err != nil {
				return
			}
			continue
		}
		s.logf("pmoworker: cell %d done (%d bytes)", id, len(payload))
		if err := writeFrame(c, resultFrame(id, payload)); err != nil {
			return
		}
	}
}

// dialWorker opens one protocol connection to a worker.
func dialWorker(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := writeFrame(c, helloFrame()); err != nil {
		c.Close()
		return nil, err
	}
	p, err := readFrame(c)
	if err != nil {
		c.Close()
		if err == io.EOF {
			err = fmt.Errorf("sweep: worker %s closed during handshake", addr)
		}
		return nil, err
	}
	if err := checkHello(p); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}
