package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestHelloNegotiation covers the version handshake: a v2 offer
// negotiates v2, a bare v1 HELLO stays v1 and still gets the bare OK
// (byte-compatible with pre-negotiation daemons), and batching on a v1
// session is refused with the typed version error on both sides.
func TestHelloNegotiation(t *testing.T) {
	srv, addr := startTestServer(t, Options{})
	_ = srv

	t.Run("v2", func(t *testing.T) {
		cl := dialT(t, addr)
		if err := cl.Hello("alice"); err != nil {
			t.Fatal(err)
		}
		if cl.Proto() != ProtoV2 {
			t.Fatalf("negotiated v%d, want v%d", cl.Proto(), ProtoV2)
		}
	})
	t.Run("v1 pin", func(t *testing.T) {
		cl := dialT(t, addr)
		if err := cl.HelloV1("bob"); err != nil {
			t.Fatal(err)
		}
		if cl.Proto() != ProtoV1 {
			t.Fatalf("negotiated v%d, want v%d", cl.Proto(), ProtoV1)
		}
		// Client-side guard: batching without v2 never hits the wire.
		err := cl.DoBatch([]*Request{{Op: OpStats}}, make([]Response, 1))
		wantCode(t, err, ErrVersion)
	})
	t.Run("v1 bare OK", func(t *testing.T) {
		// A hand-rolled v1 HELLO must get the v1-shaped response: OK
		// with an empty body, no version byte.
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := writeFrame(c, EncodeRequest(&Request{Op: OpHello, ID: 1, Client: "carol"})); err != nil {
			t.Fatal(err)
		}
		payload, err := readFrame(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, werr := ParseResponse(payload, false)
		if werr != nil {
			t.Fatal(werr)
		}
		if resp.Status != StatusOK || len(resp.Data) != 0 {
			t.Fatalf("v1 HELLO response %+v, want bare OK", resp)
		}
	})
	t.Run("server rejects batch on v1 session", func(t *testing.T) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := writeFrame(c, EncodeRequest(&Request{Op: OpHello, ID: 1, Client: "dave"})); err != nil {
			t.Fatal(err)
		}
		if _, err := readFrame(c, nil); err != nil {
			t.Fatal(err)
		}
		batch := AppendBatch(nil, 9, []*Request{{Op: OpStats, ID: 10}})
		if err := writeFrame(c, batch); err != nil {
			t.Fatal(err)
		}
		payload, err := readFrame(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, werr := ParseResponse(payload, false)
		if werr != nil {
			t.Fatal(werr)
		}
		if resp.Status != StatusErr || resp.Code != ErrVersion || resp.ID != 9 {
			t.Fatalf("batch on v1 session: %+v, want ErrVersion on id 9", resp)
		}
	})
	t.Run("future version clamps", func(t *testing.T) {
		cl := dialT(t, addr)
		resp, err := cl.roundTrip(&Request{Op: OpHello, Client: "eve", Proto: 9})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Data) != 1 || resp.Data[0] != MaxProto {
			t.Fatalf("offered v9, server answered %v, want clamp to v%d", resp.Data, MaxProto)
		}
	})
}

// TestBatchRoundTrip exercises the pipelined path against a live
// server: mixed ops in one frame, correlation-ID matching, per-entry
// errors that do not poison the batch.
func TestBatchRoundTrip(t *testing.T) {
	srv, addr := startTestServer(t, Options{})
	cl := dialT(t, addr)
	if err := cl.Hello("batcher"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Open("batcher-pool", 512<<10); err != nil {
		t.Fatal(err)
	}
	if err := cl.Attach(true); err != nil {
		t.Fatal(err)
	}

	reqs := []*Request{
		{Op: OpWrite, Off: 300 << 10, Data: []byte("one")},
		{Op: OpWrite, Off: 310 << 10, Data: []byte("two")},
		{Op: OpRead, Off: 300 << 10, Len: 3},
		{Op: OpTxCommit, Tx: []TxWrite{{Off: 320 << 10, Data: []byte("three")}}},
		{Op: OpRead, Off: 320 << 10, Len: 5},
		{Op: OpRead, Off: 1 << 30, Len: 4}, // out of range: per-entry error
		{Op: OpStats},
	}
	resps := make([]Response, len(reqs))
	if err := cl.DoBatch(reqs, resps); err != nil {
		t.Fatal(err)
	}
	for i := range []int{0, 1, 2, 3, 4} {
		if resps[i].Status != StatusOK {
			t.Errorf("entry %d: %+v, want OK", i, resps[i])
		}
	}
	if string(resps[2].Data) != "one" || string(resps[4].Data) != "three" {
		t.Errorf("batched reads %q, %q", resps[2].Data, resps[4].Data)
	}
	if resps[5].Status != StatusErr || resps[5].Code != ErrRange {
		t.Errorf("out-of-range entry: %+v, want ErrRange", resps[5])
	}
	if resps[6].Status != StatusOK || !bytes.Contains(resps[6].Data, []byte("pmod_requests_total")) {
		t.Errorf("batched STATS entry broken: %+v", resps[6])
	}
	if got := srv.Metrics().Requests[OpBatch].Load(); got != 1 {
		t.Errorf("server counted %d BATCH frames, want 1", got)
	}
}

// TestBatchSessionLifecycleInBatch runs OPEN/CLOSE inside batches
// against the server directly (legal there, unlike through the router)
// to pin sub-request semantics.
func TestBatchSessionLifecycleInBatch(t *testing.T) {
	srv, addr := startTestServer(t, Options{})
	cl := dialT(t, addr)
	if err := cl.Hello("lifecycle"); err != nil {
		t.Fatal(err)
	}
	reqs := []*Request{
		{Op: OpOpen, Name: "lifecycle-pool", Size: 512 << 10},
		{Op: OpAttach, Writable: true},
		{Op: OpWrite, Off: 300 << 10, Data: []byte("in-batch")},
		{Op: OpClose},
	}
	resps := make([]Response, len(reqs))
	if err := cl.DoBatch(reqs, resps); err != nil {
		t.Fatal(err)
	}
	for i, resp := range resps {
		if resp.Status != StatusOK {
			t.Fatalf("entry %d: %+v", i, resp)
		}
	}
	if resps[0].SID == 0 {
		t.Error("batched OPEN returned no session id")
	}
	waitFor(t, time.Second, func() bool { return srv.SessionCount() == 0 })
	if n := srv.SessionCount(); n != 0 {
		t.Errorf("%d sessions leaked after batched CLOSE", n)
	}
}

// TestParseBatchMalformed table-tests the BATCH container parser: every
// malformation must yield a typed *WireError, never a panic, and leave
// drawn requests accounted for release.
func TestParseBatchMalformed(t *testing.T) {
	mk := func(reqs ...*Request) []byte { return AppendBatch(nil, 7, reqs) }
	read := &Request{Op: OpRead, Off: 64, Len: 8}
	cases := []struct {
		name    string
		payload []byte
		want    ErrCode
	}{
		{"empty payload", nil, ErrBadFrame},
		{"header only", []byte{byte(OpBatch), 0, 0, 0, 7}, ErrBadFrame},
		{"not a batch op", EncodeRequest(read), ErrBadFrame},
		{"zero entries", mk(), ErrBadFrame},
		{"count over limit", func() []byte {
			b := mk(read)
			binary.BigEndian.PutUint16(b[5:], MaxBatch+1)
			return b
		}(), ErrTooLarge},
		{"count lies high", func() []byte {
			b := mk(read)
			binary.BigEndian.PutUint16(b[5:], 3)
			return b
		}(), ErrBadFrame},
		{"truncated entry", func() []byte {
			b := mk(read)
			return b[:len(b)-3]
		}(), ErrBadFrame},
		{"entry length lies", func() []byte {
			b := mk(read)
			binary.BigEndian.PutUint32(b[7:], 1<<20)
			return b
		}(), ErrBadFrame},
		{"trailing bytes", append(mk(read), 0xAA), ErrBadFrame},
		{"hello inside batch", mk(&Request{Op: OpHello, Client: "x", Proto: 2}), ErrBadFrame},
		{"nested batch", func() []byte {
			inner := mk(read)
			b := AppendBatch(nil, 8, nil)
			binary.BigEndian.PutUint16(b[5:], 1)
			b = binary.BigEndian.AppendUint32(b, uint32(len(inner)))
			return append(b, inner...)
		}(), ErrBadFrame},
		{"malformed sub-request", func() []byte {
			b := AppendBatch(nil, 9, nil)
			binary.BigEndian.PutUint16(b[5:], 1)
			b = binary.BigEndian.AppendUint32(b, 3)
			return append(b, 0xEE, 0x01, 0x02)
		}(), ErrBadFrame},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := &Batch{}
			werr := parseBatchInto(b, c.payload, func() *Request { return &Request{} })
			if werr == nil {
				t.Fatalf("parsed without error: %+v", b)
			}
			if werr.Code != c.want {
				t.Errorf("code %d (%s), want %d", werr.Code, werr.Msg, c.want)
			}
		})
	}
}

// TestMalformedBatchOverWire drives raw malformed BATCH frames at a
// live server: typed scalar error on the batch ID, no panic, no
// session leak, and the connection stays usable after recoverable
// errors.
func TestMalformedBatchOverWire(t *testing.T) {
	srv, addr := startTestServer(t, Options{})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	roundTrip := func(payload []byte) *Response {
		t.Helper()
		if err := writeFrame(c, payload); err != nil {
			t.Fatal(err)
		}
		raw, err := readFrame(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, werr := ParseResponse(raw, false)
		if werr != nil {
			t.Fatalf("unparseable response: %v", werr)
		}
		return resp
	}

	if resp := roundTrip(EncodeRequest(&Request{Op: OpHello, ID: 1, Client: "mallory", Proto: 2})); resp.Status != StatusOK {
		t.Fatalf("hello: %+v", resp)
	}
	if resp := roundTrip(EncodeRequest(&Request{Op: OpOpen, ID: 2, Name: "mallory-pool", Size: 512 << 10})); resp.Status != StatusOK {
		t.Fatalf("open: %+v", resp)
	}

	truncated := AppendBatch(nil, 40, []*Request{{Op: OpRead, ID: 41, Off: 0, Len: 8}})
	binary.BigEndian.PutUint16(truncated[5:], 5) // count lies
	resp := roundTrip(truncated)
	if resp.Status != StatusErr || resp.Code != ErrBadFrame || resp.ID != 40 {
		t.Fatalf("lying batch count: %+v, want ErrBadFrame on id 40", resp)
	}

	withHello := AppendBatch(nil, 50, []*Request{{Op: OpHello, ID: 51, Client: "x", Proto: 2}})
	resp = roundTrip(withHello)
	if resp.Status != StatusErr || resp.Code != ErrBadFrame || resp.ID != 50 {
		t.Fatalf("HELLO in batch: %+v, want ErrBadFrame on id 50", resp)
	}

	// The connection (and its session) survive recoverable batch errors.
	good := AppendBatch(nil, 60, []*Request{{Op: OpAttach, ID: 61, Writable: true}})
	raw := func() []byte {
		if err := writeFrame(c, good); err != nil {
			t.Fatal(err)
		}
		b, err := readFrame(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}()
	var it batchRespIter
	if werr := it.init(raw); werr != nil {
		t.Fatalf("good batch after bad ones: %v", werr)
	}
	if srv.SessionCount() != 1 {
		t.Errorf("session count %d, want 1 (conn must survive)", srv.SessionCount())
	}

	c.Close()
	waitFor(t, time.Second, func() bool { return srv.SessionCount() == 0 })
	if n := srv.SessionCount(); n != 0 {
		t.Errorf("%d sessions leaked after malformed batch traffic", n)
	}
}

// FuzzBatch throws arbitrary bytes at the BATCH container parser; the
// contract is no panic, and every drawn sub-request is tracked in
// b.Reqs whether or not the parse succeeds (the pool-return invariant).
func FuzzBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{byte(OpBatch), 0, 0, 0, 1, 0, 1})
	f.Add(AppendBatch(nil, 1, []*Request{{Op: OpRead, ID: 2, Off: 64, Len: 8}}))
	f.Add(AppendBatch(nil, 3, []*Request{
		{Op: OpWrite, ID: 4, Off: 0, Data: []byte("ab")},
		{Op: OpTxCommit, ID: 5, Tx: []TxWrite{{Off: 8, Data: []byte("cd")}}},
		{Op: OpClose, ID: 6},
	}))
	f.Add(append(AppendBatch(nil, 7, []*Request{{Op: OpStats, ID: 8}}), 0xFF))
	f.Add(AppendBatch(nil, 9, []*Request{{Op: OpRead, ID: 10}, {Op: OpOpen, ID: 11, Name: "p", Size: 1 << 20}}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		b := &Batch{}
		drawn := 0
		werr := parseBatchInto(b, payload, func() *Request { drawn++; return &Request{} })
		if drawn != len(b.Reqs) {
			t.Fatalf("drew %d requests but tracked %d: pool leak", drawn, len(b.Reqs))
		}
		// The router's scan reads every payload, accepted or not.
		scan := BatchHasSessionOp(payload)
		if werr != nil {
			return
		}
		if len(b.Reqs) == 0 || len(b.Reqs) > MaxBatch {
			t.Fatalf("accepted batch with %d entries", len(b.Reqs))
		}
		openOrClose := false
		for _, req := range b.Reqs {
			switch req.Op {
			case OpHello:
				t.Fatal("accepted batch holds a HELLO")
			case OpOpen, OpClose:
				openOrClose = true
			}
		}
		if scan != openOrClose {
			t.Fatalf("BatchHasSessionOp = %v, but the parsed entries hold an OPEN or CLOSE: %v", scan, openOrClose)
		}
		// A valid container re-encodes and re-parses identically.
		for _, req := range b.Reqs {
			req.detach()
		}
		again := &Batch{}
		if werr := parseBatchInto(again, AppendBatch(nil, b.ID, b.Reqs), func() *Request { return &Request{} }); werr != nil {
			t.Fatalf("re-encode of valid batch failed to parse: %v", werr)
		}
		if again.ID != b.ID || len(again.Reqs) != len(b.Reqs) {
			t.Fatalf("re-encode changed container: %d/%d entries, id %d/%d",
				len(again.Reqs), len(b.Reqs), again.ID, b.ID)
		}
	})
}

// countingConn counts network write calls — the syscall-shaped cost the
// batch path exists to amortize.
type countingConn struct {
	net.Conn
	writes atomic.Uint64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestBatchSyscallReduction is the cluster PR's acceptance check: at
// batch size 8, the client must complete at least 4x as many ops per
// network round trip (one buffered write + one response read) as the
// scalar path's one.
func TestBatchSyscallReduction(t *testing.T) {
	_, addr := startTestServer(t, Options{})
	const perMode = 80

	run := func(batch int) (ops, writes uint64) {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		cc := &countingConn{Conn: raw}
		cl := NewClient(cc)
		defer cl.Close()
		if err := cl.Hello(fmt.Sprintf("count-%d", batch)); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Open(fmt.Sprintf("count-%d-pool", batch), 512<<10); err != nil {
			t.Fatal(err)
		}
		if err := cl.Attach(true); err != nil {
			t.Fatal(err)
		}
		base := cc.writes.Load()
		data := []byte("payload.")
		if batch <= 1 {
			for i := 0; i < perMode; i++ {
				if err := cl.Write(300<<10, data); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			reqs := make([]*Request, batch)
			resps := make([]Response, batch)
			for j := range reqs {
				reqs[j] = &Request{Op: OpWrite, Off: 300 << 10, Data: data}
			}
			for i := 0; i < perMode/batch; i++ {
				if err := cl.DoBatch(reqs, resps); err != nil {
					t.Fatal(err)
				}
				for j := range resps {
					if resps[j].Status != StatusOK {
						t.Fatalf("entry %d: %+v", j, resps[j])
					}
				}
			}
		}
		return perMode, cc.writes.Load() - base
	}

	scalarOps, scalarWrites := run(1)
	batchOps, batchWrites := run(8)
	scalarRatio := float64(scalarOps) / float64(scalarWrites)
	batchRatio := float64(batchOps) / float64(batchWrites)
	t.Logf("scalar: %d ops / %d writes = %.2f; batch8: %d ops / %d writes = %.2f",
		scalarOps, scalarWrites, scalarRatio, batchOps, batchWrites, batchRatio)
	if batchRatio < 4*scalarRatio {
		t.Fatalf("batch pipelining gives %.2f ops per network write vs scalar %.2f: want >= 4x", batchRatio, scalarRatio)
	}
}

// BenchmarkBatchRoundTrip measures client-observed throughput over a
// live socket at increasing batch sizes. The ops/round-trip metric is
// the pipelining win the cluster tier depends on: batch=8 must amortize
// one network write + read over 8 ops (vs 1 for scalar).
func BenchmarkBatchRoundTrip(b *testing.B) {
	_, addr := startTestServer(b, Options{})
	data := make([]byte, 128)
	for _, batch := range []int{1, 2, 8, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				b.Fatal(err)
			}
			cc := &countingConn{Conn: raw}
			cl := NewClient(cc)
			defer cl.Close()
			if err := cl.Hello("bench"); err != nil {
				b.Fatal(err)
			}
			if _, err := cl.Open(fmt.Sprintf("bench-%d", batch), 1<<20); err != nil {
				b.Fatal(err)
			}
			if err := cl.Attach(true); err != nil {
				b.Fatal(err)
			}
			reqs := make([]*Request, batch)
			resps := make([]Response, batch)
			for j := range reqs {
				reqs[j] = &Request{Op: OpWrite, Off: 300 << 10, Data: data}
			}
			base := cc.writes.Load()
			b.ReportAllocs()
			b.ResetTimer()
			ops := 0
			for i := 0; i < b.N; i++ {
				if batch == 1 {
					if err := cl.Write(300<<10, data); err != nil {
						b.Fatal(err)
					}
					ops++
					continue
				}
				if err := cl.DoBatch(reqs, resps); err != nil {
					b.Fatal(err)
				}
				for j := range resps {
					if resps[j].Status != StatusOK {
						b.Fatalf("entry %d: %+v", j, resps[j])
					}
				}
				ops += batch
			}
			b.StopTimer()
			if writes := cc.writes.Load() - base; writes > 0 {
				b.ReportMetric(float64(ops)/float64(writes), "ops/roundtrip")
			}
			b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// TestClientTimeout pins the typed I/O deadline error: a peer that
// never answers must surface ErrTimeout, and a canceled dial context
// must fail immediately.
func TestClientTimeout(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			defer c.Close() // accept, then never respond
		}
	}()

	cl, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetTimeout(50 * time.Millisecond)
	start := time.Now()
	err = cl.Hello("nobody")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("silent server: %v, want ErrTimeout", err)
	}
	if since := time.Since(start); since > 2*time.Second {
		t.Fatalf("timeout took %v, want ~50ms", since)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DialContext(ctx, lis.Addr().String()); err == nil {
		t.Fatal("dial with canceled context succeeded")
	}
}

// TestBatchWirePathAllocFree pins the batch container's encode and
// parse at zero steady-state allocations, extending the PR-4 invariant
// to the v2 path.
func TestBatchWirePathAllocFree(t *testing.T) {
	reqs := []*Request{
		{Op: OpWrite, ID: 2, Off: 64, Data: make([]byte, 128)},
		{Op: OpRead, ID: 3, Off: 64, Len: 128},
		{Op: OpTxCommit, ID: 4, Tx: []TxWrite{{Off: 0, Data: make([]byte, 32)}}},
	}
	var enc []byte
	pool := make([]*Request, 0, MaxBatch)
	for i := 0; i < MaxBatch; i++ {
		pool = append(pool, &Request{})
	}
	b := &Batch{}
	var respEnc []byte
	var resp Response
	round := func() {
		enc = AppendBatch(enc[:0], 1, reqs)
		next := 0
		b.ID, b.Reqs = 0, b.Reqs[:0]
		if werr := parseBatchInto(b, enc, func() *Request { r := pool[next]; next++; return r }); werr != nil {
			t.Fatal(werr)
		}
		for _, req := range b.Reqs {
			req.detach()
		}
		respEnc = appendBatchRespHeader(respEnc[:0], b.ID, len(b.Reqs))
		for _, req := range b.Reqs {
			resp = Response{Status: StatusOK, ID: req.ID}
			respEnc = appendBatchRespEntry(respEnc, &resp)
		}
		var it batchRespIter
		if werr := it.init(respEnc); werr != nil {
			t.Fatal(werr)
		}
		for {
			sub, werr := it.next()
			if werr != nil {
				t.Fatal(werr)
			}
			if sub == nil {
				break
			}
		}
	}
	round() // warm: grow scratch and encode buffers once
	if allocs := testing.AllocsPerRun(300, round); allocs != 0 {
		t.Fatalf("batch wire path allocates %v times per run, want 0", allocs)
	}
}

// TestCloseSessionKeepsConn pins the OpClose contract the router's conn
// reuse depends on: CLOSE ends the session, the connection survives,
// and a new HELLO + OPEN on it works under a fresh identity.
func TestCloseSessionKeepsConn(t *testing.T) {
	srv, addr := startTestServer(t, Options{})
	cl := dialT(t, addr)
	if err := cl.Hello("first"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Open("first-pool", 512<<10); err != nil {
		t.Fatal(err)
	}
	if err := cl.Attach(true); err != nil {
		t.Fatal(err)
	}
	if err := cl.CloseSession(); err != nil {
		t.Fatal(err)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("session count %d after CLOSE, want 0", n)
	}
	if got := srv.Metrics().Closes.Load(); got != 1 {
		t.Errorf("close counter %d, want 1", got)
	}
	// Same conn, new identity — exactly the router's reuse sequence.
	if err := cl.Hello("second"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Open("second-pool", 512<<10); err != nil {
		t.Fatal(err)
	}
	if err := cl.Attach(true); err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(300<<10, []byte("reborn")); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Read(300<<10, 6)
	if err != nil || string(got) != "reborn" {
		t.Fatalf("read after identity swap: %q, %v", got, err)
	}
	// CLOSE with no session is a typed error, not a hang.
	if err := cl.CloseSession(); err != nil {
		t.Fatal(err)
	}
	err = cl.CloseSession()
	wantCode(t, err, ErrNoSession)
}
