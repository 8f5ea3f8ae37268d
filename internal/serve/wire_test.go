package serve

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
)

func TestRequestRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Op: OpHello, ID: 1, Client: "alice"},
		{Op: OpOpen, ID: 2, Name: "sess", Size: 1 << 20},
		{Op: OpAttach, ID: 3, Writable: true},
		{Op: OpAttach, ID: 4, Writable: false},
		{Op: OpRead, ID: 5, Off: 4096, Len: 64},
		{Op: OpWrite, ID: 6, Off: 8192, Data: []byte("payload")},
		{Op: OpTxCommit, ID: 7, Tx: []TxWrite{{Off: 1, Data: []byte("a")}, {Off: 2, Data: []byte("bc")}}},
		{Op: OpDetach, ID: 8},
		{Op: OpStats, ID: 9},
	}
	for _, want := range reqs {
		got, werr := ParseRequest(EncodeRequest(want))
		if werr != nil {
			t.Fatalf("%v: parse error %v", want.Op, werr)
		}
		if got.Op != want.Op || got.ID != want.ID || got.Client != want.Client ||
			got.Name != want.Name || got.Size != want.Size || got.Writable != want.Writable ||
			got.Off != want.Off || got.Len != want.Len || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("%v: round trip mismatch: %+v != %+v", want.Op, got, want)
		}
		if len(got.Tx) != len(want.Tx) {
			t.Fatalf("%v: tx count %d != %d", want.Op, len(got.Tx), len(want.Tx))
		}
		for i := range got.Tx {
			if got.Tx[i].Off != want.Tx[i].Off || !bytes.Equal(got.Tx[i].Data, want.Tx[i].Data) {
				t.Errorf("%v: tx[%d] mismatch", want.Op, i)
			}
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []struct {
		resp    *Response
		wantSID bool
	}{
		{&Response{Status: StatusOK, ID: 1, SID: 77}, true},
		{&Response{Status: StatusOK, ID: 2, Data: []byte("hello")}, false},
		{&Response{Status: StatusErr, ID: 3, Code: ErrDenied, Msg: "no"}, false},
		{&Response{Status: StatusRetry, ID: 4}, false},
	}
	for _, c := range cases {
		got, werr := ParseResponse(EncodeResponse(c.resp), c.wantSID)
		if werr != nil {
			t.Fatalf("parse: %v", werr)
		}
		if got.Status != c.resp.Status || got.ID != c.resp.ID || got.SID != c.resp.SID ||
			got.Code != c.resp.Code || got.Msg != c.resp.Msg || !bytes.Equal(got.Data, c.resp.Data) {
			t.Errorf("round trip mismatch: %+v != %+v", got, c.resp)
		}
	}
}

// TestParseRequestMalformed table-tests truncated, oversized, and
// garbage payloads: every one must yield a typed *WireError, never a
// panic.
func TestParseRequestMalformed(t *testing.T) {
	trunc := func(req *Request, n int) []byte {
		b := EncodeRequest(req)
		return b[:len(b)-n]
	}
	pad := func(req *Request, n int) []byte {
		return append(EncodeRequest(req), make([]byte, n)...)
	}
	cases := []struct {
		name    string
		payload []byte
		want    ErrCode
	}{
		{"empty", nil, ErrBadFrame},
		{"header only", []byte{byte(OpRead)}, ErrBadFrame},
		{"unknown op", []byte{0xEE, 0, 0, 0, 1}, ErrBadOp},
		{"zero op", []byte{0, 0, 0, 0, 1}, ErrBadOp},
		{"hello empty name", EncodeRequest(&Request{Op: OpHello, ID: 1}), ErrBadFrame},
		{"hello truncated name", trunc(&Request{Op: OpHello, ID: 1, Client: "alice"}, 3), ErrBadFrame},
		{"open truncated size", trunc(&Request{Op: OpOpen, ID: 1, Name: "p", Size: 1 << 20}, 4), ErrBadFrame},
		{"open empty name", EncodeRequest(&Request{Op: OpOpen, ID: 1, Size: 8}), ErrBadFrame},
		{"read short body", trunc(&Request{Op: OpRead, ID: 1, Off: 1, Len: 2}, 2), ErrBadFrame},
		{"read trailing garbage", pad(&Request{Op: OpRead, ID: 1, Off: 1, Len: 2}, 5), ErrBadFrame},
		{"read span too large", EncodeRequest(&Request{Op: OpRead, ID: 1, Len: MaxIO + 1}), ErrTooLarge},
		{"write length lies long", func() []byte {
			b := EncodeRequest(&Request{Op: OpWrite, ID: 1, Off: 0, Data: []byte("abcd")})
			binary.BigEndian.PutUint32(b[9:], 1000) // declared len > actual
			return b
		}(), ErrBadFrame},
		{"write length lies short", func() []byte {
			b := EncodeRequest(&Request{Op: OpWrite, ID: 1, Off: 0, Data: []byte("abcd")})
			binary.BigEndian.PutUint32(b[9:], 2) // trailing bytes left over
			return b
		}(), ErrBadFrame},
		{"write span too large", func() []byte {
			b := EncodeRequest(&Request{Op: OpWrite, ID: 1})
			binary.BigEndian.PutUint32(b[9:], MaxIO+1)
			return b
		}(), ErrTooLarge},
		{"tx count lies", func() []byte {
			b := EncodeRequest(&Request{Op: OpTxCommit, ID: 1, Tx: []TxWrite{{Off: 1, Data: []byte("x")}}})
			binary.BigEndian.PutUint16(b[5:], 9) // more entries than present
			return b
		}(), ErrBadFrame},
		{"detach trailing garbage", pad(&Request{Op: OpDetach, ID: 1}, 1), ErrBadFrame},
		{"close trailing garbage", pad(&Request{Op: OpClose, ID: 1}, 1), ErrBadFrame},
		{"hello version zero", append(EncodeRequest(&Request{Op: OpHello, ID: 1, Client: "v"}), 0), ErrBadFrame},
		{"batch in scalar parser", AppendBatch(nil, 1, []*Request{{Op: OpRead, ID: 2, Off: 0, Len: 8}}), ErrBadFrame},
		{"random garbage", []byte{0x04, 0xFF, 0xFF, 0xFF, 0xFF, 0xDE, 0xAD}, ErrBadFrame},
	}
	for _, c := range cases {
		req, werr := ParseRequest(c.payload)
		if werr == nil {
			t.Errorf("%s: parsed without error (%+v)", c.name, req)
			continue
		}
		if werr.Code != c.want {
			t.Errorf("%s: code %d, want %d (%s)", c.name, werr.Code, c.want, werr.Msg)
		}
	}
}

// FuzzFrame throws arbitrary bytes at the request decoder; the contract
// is no panic, and a successful parse must re-encode to a payload that
// parses identically (no hidden state).
func FuzzFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{byte(OpRead), 0, 0, 0, 1, 0, 0, 16, 0, 0, 0, 0, 64})
	for _, req := range []*Request{
		{Op: OpHello, ID: 1, Client: "fuzz"},
		{Op: OpHello, ID: 1, Client: "fuzz", Proto: ProtoV2},
		{Op: OpOpen, ID: 2, Name: "pool", Size: 4096},
		{Op: OpWrite, ID: 3, Off: 64, Data: []byte{1, 2, 3}},
		{Op: OpTxCommit, ID: 4, Tx: []TxWrite{{Off: 8, Data: []byte("ab")}}},
		{Op: OpClose, ID: 5},
	} {
		f.Add(EncodeRequest(req))
	}
	// A BATCH container must bounce off the scalar parser (nested-batch
	// guard), never recurse into it.
	f.Add(AppendBatch(nil, 6, []*Request{{Op: OpRead, ID: 7, Off: 64, Len: 8}}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, werr := ParseRequest(payload)
		if werr != nil {
			return
		}
		again, werr2 := ParseRequest(EncodeRequest(req))
		if werr2 != nil {
			t.Fatalf("re-encode of valid request failed to parse: %v", werr2)
		}
		if again.Op != req.Op || again.ID != req.ID {
			t.Fatalf("re-encode changed header: %+v != %+v", again, req)
		}
	})
}

// FuzzParseResponse throws arbitrary bytes at the response decoder the
// client and the router's backend connections parse upstream frames
// with, both as an OPEN answer and as any other: no panic, and a payload
// it accepts must re-encode with AppendResponse and parse back to an
// equal Response.
func FuzzParseResponse(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{byte(StatusOK), 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}, true)
	for _, c := range []struct {
		resp    *Response
		wantSID bool
	}{
		{&Response{Status: StatusOK, ID: 1, SID: 77}, true},
		{&Response{Status: StatusOK, ID: 2, Data: []byte("hello")}, false},
		{&Response{Status: StatusOK, ID: 3}, false},
		{&Response{Status: StatusErr, ID: 4, Code: ErrDenied, Msg: "no"}, false},
		{&Response{Status: StatusErr, ID: 5, Code: ErrUnavailable, Msg: "down"}, true},
		{&Response{Status: StatusRetry, ID: 6}, true},
	} {
		f.Add(EncodeResponse(c.resp), c.wantSID)
	}
	f.Fuzz(func(t *testing.T, payload []byte, wantSID bool) {
		resp, werr := ParseResponse(payload, wantSID)
		if werr != nil {
			return
		}
		again, werr := ParseResponse(AppendResponse(nil, resp), wantSID)
		if werr != nil {
			t.Fatalf("re-encode of %+v failed to parse: %v", resp, werr)
		}
		if again.Status != resp.Status || again.ID != resp.ID || again.Code != resp.Code ||
			again.Msg != resp.Msg || again.SID != resp.SID || !bytes.Equal(again.Data, resp.Data) {
			t.Fatalf("re-encode changed the response: %+v != %+v", again, resp)
		}
	})
}

// TestFrameIO covers the length-prefix layer: clean EOF, partial
// frames, and oversized declarations.
func TestFrameIO(t *testing.T) {
	var b bytes.Buffer
	if err := writeFrame(&b, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&b, nil)
	if err != nil || string(got) != "abc" {
		t.Fatalf("round trip: %q, %v", got, err)
	}
	if _, err := readFrame(&b, nil); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}

	if _, err := readFrame(bytes.NewReader([]byte{0, 0}), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("short header: %v", err)
	}
	if _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 9, 'x'}), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("short body: %v", err)
	}
	huge := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	var tooBig errFrameTooLarge
	if _, err := readFrame(bytes.NewReader(huge), nil); err == nil || !errorsAs(err, &tooBig) {
		t.Fatalf("oversized declaration: %v", err)
	}
}

func errorsAs(err error, target *errFrameTooLarge) bool {
	e, ok := err.(errFrameTooLarge)
	if ok {
		*target = e
	}
	return ok
}

// TestMalformedFramesOverWire drives raw malformed frames at a live
// server: each must produce a typed error response (or a clean close
// for unrecoverable framing), the server must not panic, and no session
// may leak.
func TestMalformedFramesOverWire(t *testing.T) {
	srv, addr := startTestServer(t, Options{})

	send := func(t *testing.T, raw []byte) (*Response, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(raw); err != nil {
			t.Fatal(err)
		}
		payload, err := readFrame(c, nil)
		if err != nil {
			return nil, err
		}
		resp, werr := ParseResponse(payload, false)
		if werr != nil {
			t.Fatalf("unparseable server response: %v", werr)
		}
		return resp, nil
	}

	t.Run("garbage op", func(t *testing.T) {
		frame := binary.BigEndian.AppendUint32(nil, 5)
		frame = append(frame, 0xEE, 0, 0, 0, 7)
		resp, err := send(t, frame)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusErr || resp.Code != ErrBadOp || resp.ID != 7 {
			t.Errorf("got %+v, want ErrBadOp on id 7", resp)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		frame := binary.BigEndian.AppendUint32(nil, 7)
		frame = append(frame, byte(OpRead), 0, 0, 0, 9, 0xAA, 0xBB)
		resp, err := send(t, frame)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusErr || resp.Code != ErrBadFrame {
			t.Errorf("got %+v, want ErrBadFrame", resp)
		}
	})
	t.Run("oversized declared length", func(t *testing.T) {
		frame := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
		resp, err := send(t, frame)
		// Either a typed error then close, or an immediate close.
		if err == nil && (resp.Status != StatusErr || resp.Code != ErrTooLarge) {
			t.Errorf("got %+v, want ErrTooLarge or close", resp)
		}
	})
	t.Run("half a session then garbage", func(t *testing.T) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		cl := NewClient(c)
		if err := cl.Hello("mallory"); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Open("mallory-pool", 64<<10); err != nil {
			t.Fatal(err)
		}
		// Now wreck the stream mid-frame and disconnect.
		c.Write([]byte{0, 0, 0, 50, 1, 2, 3})
		c.Close()
	})

	waitFor(t, time.Second, func() bool { return srv.SessionCount() == 0 && srv.ConnCount() == 0 })
	if n := srv.SessionCount(); n != 0 {
		t.Errorf("%d sessions leaked after malformed traffic", n)
	}
}
