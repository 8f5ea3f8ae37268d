package sweep

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"domainvirt/internal/par"
)

// Job is one grid cell to distribute: an opaque spec that names
// everything the cell needs, including the snapshots a worker may pull.
type Job struct {
	Spec []byte
}

// client is one coordinator->worker connection.
type client struct {
	addr string
	conn net.Conn
}

// runCell ships one job and blocks until RESULT/ERROR, answering
// NEEDSNAP sub-requests from lookup in between. A transport error means
// the worker (or link) is gone; a *CellError means the cell itself
// failed deterministically.
func (c *client) runCell(id int, job Job, lookup Fetch) ([]byte, error) {
	if err := writeFrame(c.conn, runFrame(uint32(id), job.Spec)); err != nil {
		return nil, err
	}
	for {
		p, err := readFrame(c.conn)
		if err != nil {
			return nil, err
		}
		rp, err := decodeReply(p)
		if err != nil {
			return nil, err
		}
		switch rp.t {
		case tNeedSnap:
			var data []byte
			found := false
			if lookup != nil {
				data, found = lookup(rp.key)
			}
			if err := writeFrame(c.conn, snapFrame(rp.key, found, data)); err != nil {
				return nil, err
			}
		case tResult:
			if int(rp.id) != id {
				return nil, fmt.Errorf("sweep: result for cell %d while waiting on %d", rp.id, id)
			}
			return rp.payload, nil
		case tError:
			return nil, &CellError{Msg: rp.msg}
		}
	}
}

// Pool distributes jobs over a set of workers, degrading to local
// execution for anything a worker cannot deliver.
type Pool struct {
	clients []*client
	// Log, when non-nil, receives coordinator-side progress lines
	// (worker losses, fallback decisions).
	Log func(format string, args ...any)
}

// NewPool dials every worker address, opening Conns connections to each
// (minimum 1) so one worker can execute several cells concurrently.
// Addresses that fail to dial or handshake are skipped with a log line;
// an empty pool is valid and makes Run execute everything locally.
func NewPool(addrs []string, conns int, logf func(format string, args ...any)) *Pool {
	if conns < 1 {
		conns = 1
	}
	p := &Pool{Log: logf}
	for _, addr := range addrs {
		for i := 0; i < conns; i++ {
			c, err := dialWorker(addr)
			if err != nil {
				p.logf("sweep: worker %s unavailable: %v", addr, err)
				break
			}
			p.clients = append(p.clients, &client{addr: addr, conn: c})
		}
	}
	return p
}

func (p *Pool) logf(format string, args ...any) {
	if p.Log != nil {
		p.Log(format, args...)
	}
}

// Workers returns the number of live worker connections.
func (p *Pool) Workers() int { return len(p.clients) }

// Close tears down every connection.
func (p *Pool) Close() {
	for _, c := range p.clients {
		c.conn.Close()
	}
	p.clients = nil
}

// Run executes every job and calls done(i, payload, err) exactly once
// per job, as soon as job i completes and before Run returns; done's
// return value is the job's outcome, and it may be called from several
// goroutines at once. Worker connections pull jobs from a shared cursor;
// any job no worker delivered (connection lost mid-cell, worker died, no
// workers at all) then runs in-process through local, on par.Do with
// the given worker count — in ascending order, each goroutine taking the
// next job as soon as it finishes one. With an empty pool that is every
// job. A deterministic cell failure — a remote *CellError or a local
// error — is not retried, and Run returns the lowest-indexed job's
// non-nil outcome, exactly like the sequential path.
func (p *Pool) Run(jobs []Job, workers int, local func(i int) ([]byte, error), lookup Fetch,
	done func(i int, payload []byte, err error) error) error {
	errs := make([]error, len(jobs))
	delivered := make([]bool, len(jobs))
	finish := func(i int, payload []byte, err error) {
		errs[i] = done(i, payload, err)
		delivered[i] = true
	}

	if len(p.clients) > 0 {
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, c := range p.clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					payload, err := c.runCell(i, jobs[i], lookup)
					if err != nil && !isCellError(err) {
						// Transport loss: leave the cell for the local
						// pass and retire this connection.
						p.logf("sweep: worker %s lost (cell %d re-queued locally): %v", c.addr, i, err)
						c.conn.Close()
						return
					}
					finish(i, payload, err)
				}
			}(c)
		}
		wg.Wait()
	}

	var fallback []int
	for i := range jobs {
		if !delivered[i] {
			fallback = append(fallback, i)
		}
	}
	if len(fallback) > 0 && len(p.clients) > 0 {
		p.logf("sweep: running %d cell(s) locally after worker loss", len(fallback))
	}
	par.Do(len(fallback), workers, func(k int) {
		i := fallback[k]
		payload, err := local(i)
		finish(i, payload, err)
	})

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func isCellError(err error) bool {
	_, ok := err.(*CellError)
	return ok
}
