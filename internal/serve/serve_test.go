package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"domainvirt/internal/sim"
)

// startTestServer runs an in-process daemon on a loopback port and
// tears it down with the test.
func startTestServer(t testing.TB, opts Options) (*Server, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(opts)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, lis.Addr().String()
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func wantCode(t *testing.T, err error, code ErrCode) {
	t.Helper()
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want server error code %d", err, code)
	}
	if se.Code != code {
		t.Fatalf("got code %d (%s), want %d", se.Code, se.Msg, code)
	}
}

func TestSessionLifecycle(t *testing.T) {
	for _, engine := range []string{"", "domainvirt"} {
		t.Run("engine="+engine, func(t *testing.T) {
			srv, addr := startTestServer(t, Options{Engine: sim.Scheme(engine)})
			cl := dialT(t, addr)

			if err := cl.Hello("alice"); err != nil {
				t.Fatal(err)
			}
			sid, err := cl.Open("alice-sess", 256<<10)
			if err != nil {
				t.Fatal(err)
			}
			if sid == 0 {
				t.Fatal("zero session id")
			}
			if err := cl.Attach(true); err != nil {
				t.Fatal(err)
			}
			payload := []byte("persistent session state")
			if err := cl.Write(130<<10, payload); err != nil {
				t.Fatal(err)
			}
			got, err := cl.Read(130<<10, uint32(len(payload)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("read back %q, want %q", got, payload)
			}
			if err := cl.TxCommit([]TxWrite{
				{Off: 140 << 10, Data: []byte("tx-a")},
				{Off: 150 << 10, Data: []byte("tx-b")},
			}); err != nil {
				t.Fatal(err)
			}
			got, err = cl.Read(140<<10, 4)
			if err != nil || string(got) != "tx-a" {
				t.Fatalf("tx write not visible: %q, %v", got, err)
			}
			stats, err := cl.Stats()
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"pmod_requests_total", "pmod_sessions_active 1", "pmod_op_latency_ns"} {
				if !strings.Contains(string(stats), want) {
					t.Errorf("stats missing %q", want)
				}
			}
			if engine != "" && !strings.Contains(string(stats), "pmod_engine_events_total") {
				t.Error("engine stats missing")
			}
			if err := cl.Detach(); err != nil {
				t.Fatal(err)
			}
			// Detached session can re-attach and still see its data.
			if err := cl.Attach(false); err != nil {
				t.Fatal(err)
			}
			got, err = cl.Read(130<<10, uint32(len(payload)))
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("after reattach: %q, %v", got, err)
			}
			if srv.SessionCount() != 1 {
				t.Errorf("session count %d, want 1", srv.SessionCount())
			}
		})
	}
}

func TestProtocolOrderEnforced(t *testing.T) {
	_, addr := startTestServer(t, Options{})
	cl := dialT(t, addr)

	_, err := cl.Open("p", 0)
	wantCode(t, err, ErrNoHello)
	if err := cl.Hello("bob"); err != nil {
		t.Fatal(err)
	}
	err = cl.Attach(true)
	wantCode(t, err, ErrNoSession)
	_, err = cl.Read(0, 8)
	wantCode(t, err, ErrNoSession)
	if _, err := cl.Open("p", 0); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Read(0, 8)
	wantCode(t, err, ErrNotAttached)
	err = cl.Write(0, []byte("x"))
	wantCode(t, err, ErrNotAttached)
	_, err = cl.Open("q", 0)
	wantCode(t, err, ErrExists)
	if err := cl.Attach(false); err != nil {
		t.Fatal(err)
	}
	err = cl.Attach(false)
	wantCode(t, err, ErrExists)
	// Read-only attachment rejects writes.
	err = cl.Write(64<<10, []byte("x"))
	wantCode(t, err, ErrDenied)
	err = cl.TxCommit([]TxWrite{{Off: 64 << 10, Data: []byte("x")}})
	wantCode(t, err, ErrDenied)
	// Out-of-pool span.
	_, err = cl.Read(1<<30, 8)
	wantCode(t, err, ErrRange)
}

func TestIdleSessionEviction(t *testing.T) {
	srv, addr := startTestServer(t, Options{IdleTimeout: 50 * time.Millisecond})
	cl := dialT(t, addr)
	if err := cl.Hello("idler"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Open("idle-sess", 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Attach(true); err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(300<<10, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return srv.SessionCount() == 0 })
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("session not evicted (%d live)", n)
	}
	// The next op reports the eviction as a typed error...
	_, err := cl.Read(300<<10, 7)
	wantCode(t, err, ErrEvicted)
	// ...and a re-OPEN finds the same durable pool with the data intact.
	if _, err := cl.Open("idle-sess", 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Attach(true); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Read(300<<10, 7)
	if err != nil || string(got) != "durable" {
		t.Fatalf("data lost across eviction: %q, %v", got, err)
	}
	if srv.Metrics().Evictions.Load() == 0 {
		t.Error("eviction not counted")
	}
}

// TestBackpressureRetry saturates a 1-worker, depth-1 queue and checks
// the overflow answers RETRY instead of queueing or dropping.
func TestBackpressureRetry(t *testing.T) {
	srv, addr := startTestServer(t, Options{Workers: 1, QueueDepth: 1})
	// Occupy the single worker with a job that blocks on a shard we hold
	// hostage: grab every shard lock so any session op parks.
	for _, sh := range srv.shards {
		sh.mu.Lock()
	}
	locked := true
	unlock := func() {
		if !locked {
			return
		}
		locked = false
		for _, sh := range srv.shards {
			sh.mu.Unlock()
		}
	}
	defer unlock()

	cl := dialT(t, addr)
	if err := cl.Hello("flood"); err != nil {
		t.Fatal(err)
	}
	// OPEN needs a shard lock, so it parks in the worker; fire it and
	// follow with raw pipelined frames to fill the queue and overflow.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var buf bytes.Buffer
	writeFrame(&buf, EncodeRequest(&Request{Op: OpHello, ID: 1, Client: "flood2"}))
	for i := uint32(2); i < 12; i++ {
		writeFrame(&buf, EncodeRequest(&Request{Op: OpOpen, ID: i, Name: "f", Size: 1 << 20}))
	}
	if _, err := raw.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	// HELLO answers inline-fast; the OPENs park (1 in worker, 1 queued),
	// the rest must come back RETRY.
	waitFor(t, 2*time.Second, func() bool { return srv.Metrics().Retries.Load() >= 1 })
	if got := srv.Metrics().Retries.Load(); got == 0 {
		t.Fatal("no RETRY issued under a full queue")
	}
	unlock()
	// After releasing, the parked OPEN completes; read responses until
	// we see at least one RETRY status on the wire.
	sawRetry := false
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	for i := 0; i < 11; i++ {
		payload, err := readFrame(raw, nil)
		if err != nil {
			break
		}
		resp, werr := ParseResponse(payload, false)
		if werr != nil {
			t.Fatalf("bad response: %v", werr)
		}
		if resp.Status == StatusRetry {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Error("no RETRY response observed on the wire")
	}
}

// TestGracefulDrain: every request issued before Shutdown either
// completes or gets a typed response; Shutdown finishes the in-flight
// queue and leaves no sessions.
func TestGracefulDrain(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()

	const clients = 8
	var wg sync.WaitGroup
	completed := make([]uint64, clients)
	stop := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := Dial(lis.Addr().String())
			if err != nil {
				return
			}
			defer cl.Close()
			if cl.Hello("drain") != nil {
				return
			}
			// Distinct pools: the writable attachment is exclusive.
			if _, err := cl.Open(fmt.Sprintf("drain-%d", i), 0); err != nil {
				return
			}
			if cl.Attach(true) != nil {
				return
			}
			buf := []byte("drain-data")
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := cl.Write(300<<10, buf); err != nil {
					return // conn closed by shutdown: fine
				}
				completed[i]++
			}
		}(i)
	}
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v", err)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Errorf("%d sessions after drain", n)
	}
	var total uint64
	for _, c := range completed {
		total += c
	}
	if total == 0 {
		t.Error("no requests completed before drain")
	}
	// Second shutdown is a no-op.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

func TestLoadGeneratorSmoke(t *testing.T) {
	_, addr := startTestServer(t, Options{Engine: "domainvirt"})
	rep, err := RunLoad(LoadOptions{
		Addr:     addr,
		Clients:  8,
		Duration: 300 * time.Millisecond,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("load run had %d errors (first: %s)", rep.Errors, rep.FirstErr)
	}
	if rep.IsolationViolations != 0 {
		t.Fatalf("%d isolation violations", rep.IsolationViolations)
	}
	if rep.Ops == 0 {
		t.Fatal("no ops completed")
	}
	if rep.Latency.Count != rep.Ops {
		t.Errorf("latency count %d != ops %d", rep.Latency.Count, rep.Ops)
	}
	if rep.Throughput() <= 0 {
		t.Error("zero throughput")
	}
}
