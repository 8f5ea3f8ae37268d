package sweep

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startWorker runs a Server with the given runner on an ephemeral port.
func startWorker(t *testing.T, run Runner) (*Server, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Run: run}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close(); lis.Close() })
	return srv, lis.Addr().String()
}

// runAll runs jobs on pool and returns the payloads in job order.
func runAll(pool *Pool, jobs []Job, workers int, local func(i int) ([]byte, error), lookup Fetch) ([][]byte, error) {
	got := make([][]byte, len(jobs))
	err := pool.Run(jobs, workers, local, lookup, func(i int, payload []byte, err error) error {
		got[i] = payload
		return err
	})
	return got, err
}

// echoRunner returns the spec back with a marker prefix.
func echoRunner(marker string) Runner {
	return func(spec []byte, fetch Fetch) ([]byte, error) {
		return append([]byte(marker), spec...), nil
	}
}

func TestPoolRunsAllJobsInOrder(t *testing.T) {
	_, addr := startWorker(t, echoRunner("w:"))
	pool := NewPool([]string{addr}, 2, nil)
	defer pool.Close()
	if pool.Workers() != 2 {
		t.Fatalf("workers = %d, want 2 connections", pool.Workers())
	}
	jobs := make([]Job, 10)
	for i := range jobs {
		jobs[i] = Job{Spec: []byte(fmt.Sprintf("job-%d", i))}
	}
	local := func(i int) ([]byte, error) { return []byte("local"), nil }
	got, err := runAll(pool, jobs, 1, local, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range got {
		want := fmt.Sprintf("w:job-%d", i)
		if string(p) != want {
			t.Errorf("job %d payload %q, want %q", i, p, want)
		}
	}
}

func TestPoolEmptyRunsLocally(t *testing.T) {
	// No live workers at all: a bad address degrades to local execution.
	var dials []string
	pool := NewPool([]string{"127.0.0.1:1"}, 1, func(f string, a ...any) {
		dials = append(dials, fmt.Sprintf(f, a...))
	})
	defer pool.Close()
	if pool.Workers() != 0 {
		t.Fatalf("workers = %d, want 0", pool.Workers())
	}
	if len(dials) == 0 {
		t.Error("dial failure not logged")
	}
	jobs := []Job{{Spec: []byte("a")}, {Spec: []byte("b")}}
	got, err := runAll(pool, jobs, 1, func(i int) ([]byte, error) {
		return append([]byte("local:"), jobs[i].Spec...), nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0]) != "local:a" || string(got[1]) != "local:b" {
		t.Errorf("local fallback payloads wrong: %q %q", got[0], got[1])
	}
}

func TestPoolSnapshotPull(t *testing.T) {
	// The runner demands a snapshot for every cell; the coordinator's
	// lookup serves it, and misses come back ok=false.
	_, addr := startWorker(t, func(spec []byte, fetch Fetch) ([]byte, error) {
		data, ok := fetch(string(spec))
		if !ok {
			return []byte("miss"), nil
		}
		return data, nil
	})
	pool := NewPool([]string{addr}, 1, nil)
	defer pool.Close()
	lookup := func(key string) ([]byte, bool) {
		if key == "have" {
			return []byte("snapshot-bytes"), true
		}
		return nil, false
	}
	got, err := runAll(pool, []Job{{Spec: []byte("have")}, {Spec: []byte("gone")}}, 1,
		func(i int) ([]byte, error) { return nil, errors.New("unexpected local") }, lookup)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0]) != "snapshot-bytes" {
		t.Errorf("pulled snapshot = %q", got[0])
	}
	if string(got[1]) != "miss" {
		t.Errorf("missing snapshot = %q, want miss marker", got[1])
	}
}

func TestPoolWorkerLossFallsBackLocally(t *testing.T) {
	// Worker A dies on its first cell; worker B and the local fallback
	// must deliver every job exactly once.
	var killed atomic.Bool
	srvA, addrA := startWorker(t, func(spec []byte, fetch Fetch) ([]byte, error) {
		killed.Store(true)
		panic("worker A dies mid-cell") // tears down the connection
	})
	_ = srvA
	_, addrB := startWorker(t, echoRunner("B:"))

	var mu sync.Mutex
	var localRan []int
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Spec: []byte(fmt.Sprintf("j%d", i))}
	}
	var logs []string
	pool := NewPool([]string{addrA, addrB}, 1, func(f string, a ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(f, a...))
		mu.Unlock()
	})
	defer pool.Close()
	got, err := runAll(pool, jobs, 2, func(i int) ([]byte, error) {
		mu.Lock()
		localRan = append(localRan, i)
		mu.Unlock()
		return append([]byte("L:"), jobs[i].Spec...), nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !killed.Load() {
		t.Fatal("worker A never saw a cell")
	}
	for i, p := range got {
		want1 := fmt.Sprintf("B:j%d", i)
		want2 := fmt.Sprintf("L:j%d", i)
		if string(p) != want1 && string(p) != want2 {
			t.Errorf("job %d payload %q, want worker-B or local", i, p)
		}
	}
	if len(localRan) == 0 {
		t.Error("lost cell was not re-run locally")
	}
	found := false
	for _, l := range logs {
		if strings.Contains(l, "lost") {
			found = true
		}
	}
	if !found {
		t.Errorf("worker loss not logged: %v", logs)
	}
}

func TestPoolRemoteCellErrorAborts(t *testing.T) {
	// A deterministic cell failure must abort the sweep (like the
	// sequential path), not silently re-run locally.
	_, addr := startWorker(t, func(spec []byte, fetch Fetch) ([]byte, error) {
		if string(spec) == "bad" {
			return nil, errors.New("workload exploded")
		}
		return spec, nil
	})
	pool := NewPool([]string{addr}, 1, nil)
	defer pool.Close()
	localCalls := 0
	_, err := runAll(pool, []Job{{Spec: []byte("ok")}, {Spec: []byte("bad")}}, 1,
		func(i int) ([]byte, error) { localCalls++; return nil, nil }, nil)
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CellError", err)
	}
	if !strings.Contains(ce.Msg, "workload exploded") {
		t.Errorf("error lost the remote message: %v", ce)
	}
	if localCalls != 0 {
		t.Errorf("deterministic failure was retried locally %d times", localCalls)
	}
}

func TestHandshakeVersionMismatch(t *testing.T) {
	_, addr := startWorker(t, echoRunner(""))
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Claim version 1, whose RUN frames carried a snapshot-key list;
	// the worker must hang up rather than serve frames it would misparse.
	if err := writeFrame(c, []byte{tHello, 1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := readFrame(c); err == nil {
		t.Fatal("worker answered a version-mismatched HELLO")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	payload := runFrame(7, []byte("spec-bytes"))
	go func() { writeFrame(a, payload) }()
	got, err := readFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	id, spec, err := decodeRun(got)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 || string(spec) != "spec-bytes" {
		t.Errorf("decoded RUN id %d spec %q", id, spec)
	}
	if _, _, err := decodeRun(append(got, 0)); err == nil {
		t.Error("RUN frame with a trailing byte decoded")
	}
}

// TestHostileRunFrameDropsOnlyItsConnection: a RUN frame whose spec
// length claims 4 GiB (the key count of a version-1 RUN frame, which
// the worker once allocated for before checking it against the frame)
// must cost the worker that connection and nothing else.
func TestHostileRunFrameDropsOnlyItsConnection(t *testing.T) {
	_, addr := startWorker(t, echoRunner("ok:"))
	c, err := dialWorker(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hostile := []byte{tRun, 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}
	if err := writeFrame(c, hostile); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if p, err := readFrame(c); err == nil {
		t.Fatalf("worker answered a hostile RUN frame with %q", p)
	}

	// The daemon survives: a new connection handshakes and serves a cell.
	pool := NewPool([]string{addr}, 1, nil)
	defer pool.Close()
	if pool.Workers() != 1 {
		t.Fatal("worker stopped accepting connections after a hostile frame")
	}
	got, err := runAll(pool, []Job{{Spec: []byte("cell")}}, 1,
		func(i int) ([]byte, error) { return nil, errors.New("unexpected local") }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0]) != "ok:cell" {
		t.Errorf("payload after hostile frame = %q", got[0])
	}
}

// TestPoolDoneOncePerJob: the completion hook runs exactly once per
// job, before Run returns, whichever path delivered it — a worker, the
// fallback after a worker loss, or the local pass of an empty pool —
// and a failed job reports its error through the hook too.
func TestPoolDoneOncePerJob(t *testing.T) {
	var served atomic.Int32
	_, dying := startWorker(t, func(spec []byte, fetch Fetch) ([]byte, error) {
		if served.Add(1) > 2 {
			panic("worker dies mid-sweep")
		}
		return spec, nil
	})
	_, failing := startWorker(t, func(spec []byte, fetch Fetch) ([]byte, error) {
		return nil, errors.New("cell failed")
	})
	for _, tc := range []struct {
		name  string
		addrs []string
	}{
		{"remote+fallback", []string{dying}},
		{"remote-errors", []string{failing}},
		{"local", nil},
	} {
		pool := NewPool(tc.addrs, 1, nil)
		jobs := make([]Job, 9)
		for i := range jobs {
			jobs[i] = Job{Spec: []byte{byte(i)}}
		}
		var mu sync.Mutex
		calls := make([]int, len(jobs))
		err := pool.Run(jobs, 3, func(i int) ([]byte, error) {
			return jobs[i].Spec, nil
		}, nil, func(i int, payload []byte, err error) error {
			mu.Lock()
			calls[i]++
			mu.Unlock()
			return err
		})
		pool.Close()
		if tc.name == "remote-errors" {
			var ce *CellError
			if !errors.As(err, &ce) {
				t.Errorf("%s: err = %v, want a CellError", tc.name, err)
			}
		} else if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		mu.Lock()
		for i, n := range calls {
			if n != 1 {
				t.Errorf("%s: done ran %d times for job %d", tc.name, n, i)
			}
		}
		mu.Unlock()
	}
}

// TestPoolLocalRunsConcurrently: with no workers and a local worker
// count of 2, two local jobs are in flight at once.
func TestPoolLocalRunsConcurrently(t *testing.T) {
	pool := NewPool(nil, 1, nil)
	var inFlight sync.WaitGroup
	inFlight.Add(2)
	errc := make(chan error, 1)
	go func() {
		errc <- pool.Run(make([]Job, 2), 2, func(i int) ([]byte, error) {
			inFlight.Done()
			inFlight.Wait() // returns only once both jobs have started
			return nil, nil
		}, nil, func(i int, payload []byte, err error) error { return err })
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("two local workers never had two jobs in flight")
	}
}
