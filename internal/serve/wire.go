// Package serve is the network-facing PMO service layer: a concurrent
// daemon (cmd/pmod) that serves persistent memory objects to remote
// clients over a length-prefixed binary protocol, isolating each
// client's session in its own PMO/domain — the paper's motivating
// server scenario (Section III) as a real request-serving process
// rather than a trace replay.
//
// The package provides the wire protocol (this file), the sharded
// session server (server.go), a Go client (client.go), and a
// closed-loop load generator (loadgen.go).
package serve

import (
	"encoding/binary"

	"domainvirt/internal/reqtrace"
)

// Frame format: a 4-byte big-endian payload length, then the payload.
// Every payload starts with a 1-byte opcode and a 4-byte request ID the
// response echoes, so a client may pipeline requests.
//
// Protocol v2 (negotiated in HELLO, see ProtoV2) adds request batching:
// a BATCH frame carries many sub-requests, each with its own
// correlation ID, and is answered by one StatusBatch frame whose
// sub-responses may complete out of order — the client matches them by
// ID. One frame each way means one network write and one read per
// batch instead of per op.
const (
	// MaxFrame is the hard cap on payload length; a declared length
	// beyond it is unrecoverable (the stream cannot be resynchronized)
	// and closes the connection after a typed error.
	MaxFrame = 1 << 20
	// MaxIO is the largest byte span one READ or WRITE may move.
	MaxIO = 256 << 10
	// MaxBatch is the most sub-requests one BATCH frame may carry.
	MaxBatch = 256
	// minPayload is opcode + request ID.
	minPayload = 5
)

// Wire-protocol versions. A v1 HELLO is just the client name; a v2
// HELLO appends the highest version the client speaks, and the server's
// OK response carries the negotiated version (min of both sides) as a
// 1-byte body. Everything except BATCH works identically under both.
const (
	ProtoV1 = 1
	ProtoV2 = 2
	// MaxProto is the highest version this build speaks.
	MaxProto = ProtoV2
)

// Op is a request opcode.
type Op uint8

// Request opcodes.
const (
	OpHello    Op = 1  // declare client identity: str name
	OpOpen     Op = 2  // open-or-create the session pool: str name, u64 size
	OpAttach   Op = 3  // map the session pool: u8 writable
	OpRead     Op = 4  // u32 off, u32 len -> data
	OpWrite    Op = 5  // u32 off, u32 len, bytes
	OpTxCommit Op = 6  // u16 count, count * (u32 off, u32 len, bytes), durably
	OpDetach   Op = 7  // unmap the session pool
	OpStats    Op = 8  // -> Prometheus text snapshot
	OpTrace    Op = 9  // -> JSONL dump of the retained request spans
	OpClose    Op = 10 // close the session but keep the connection (conn reuse)
	OpBatch    Op = 11 // v2: u16 count, count * (u32 len, sub-request payload)
	numOps        = 12
)

var opNames = [numOps]string{"?", "hello", "open", "attach", "read", "write", "tx_commit", "detach", "stats", "trace", "close", "batch"}

func (o Op) String() string {
	if int(o) < len(opNames) && o > 0 {
		return opNames[o]
	}
	return "?"
}

// Status is the first byte of every response payload.
type Status uint8

// Response statuses.
const (
	StatusOK    Status = 0
	StatusErr   Status = 1
	StatusRetry Status = 2 // backpressure: queue full, try again
	StatusBatch Status = 3 // v2: u16 count, count * (u32 len, sub-response payload)
)

// ErrCode is a typed protocol error; malformed or disallowed requests
// always yield one of these — the server never panics and never closes
// a connection without first sending the code (when the stream allows).
type ErrCode uint16

// Error codes.
const (
	ErrBadFrame    ErrCode = 1  // unparseable payload
	ErrBadOp       ErrCode = 2  // unknown opcode
	ErrTooLarge    ErrCode = 3  // frame or I/O span over the limit
	ErrNoHello     ErrCode = 4  // session op before HELLO
	ErrNoSession   ErrCode = 5  // session op before OPEN
	ErrExists      ErrCode = 6  // OPEN with a live session / double ATTACH
	ErrNotAttached ErrCode = 7  // data op before ATTACH
	ErrDenied      ErrCode = 8  // namespace or domain permission denied
	ErrRange       ErrCode = 9  // access outside the pool
	ErrEvicted     ErrCode = 10 // session idle-evicted; re-OPEN to continue
	ErrDraining    ErrCode = 11 // server shutting down
	ErrTx          ErrCode = 12 // transaction begin/commit failed
	ErrInternal    ErrCode = 13
	ErrDisabled    ErrCode = 14 // requested facility (e.g. tracing) not enabled
	ErrUnavailable ErrCode = 15 // cluster: the backend owning this key is down; retry later
	ErrVersion     ErrCode = 16 // op requires a protocol version the session didn't negotiate
	maxErrCode             = ErrVersion
)

// WireError is a typed protocol error with its human-readable cause.
type WireError struct {
	Code ErrCode
	Msg  string
}

func (e *WireError) Error() string { return e.Msg }

func wireErr(code ErrCode, msg string) *WireError { return &WireError{Code: code, Msg: msg} }

// TxWrite is one write of a TX_COMMIT batch.
type TxWrite struct {
	Off  uint32
	Data []byte
}

// Request is one decoded client request.
type Request struct {
	Op Op
	ID uint32

	Client string // HELLO
	Proto  uint8  // HELLO: highest protocol version offered (0 = v1 frame)
	Name   string // OPEN
	Size   uint64 // OPEN

	Writable bool // ATTACH

	Off  uint32    // READ, WRITE
	Len  uint32    // READ
	Data []byte    // WRITE
	Tx   []TxWrite // TX_COMMIT

	// scratch is the request's private copy of Data and Tx spans after
	// detach; it is retained (like the Tx backing array) across reuse
	// through the request pool so a steady request stream stops
	// allocating once the buffers have grown to the working-set size.
	scratch []byte

	// tr is the request's in-flight trace span, nil when tracing is
	// disabled. A pointer (not an embedded Active) so pooled-request
	// reset stays a cheap struct copy.
	tr *reqtrace.Active
}

// reset clears req for reuse, keeping the Tx and scratch backing arrays.
func (req *Request) reset() {
	tx, scratch := req.Tx[:0], req.scratch[:0]
	*req = Request{Tx: tx, scratch: scratch}
}

// detach copies Data and every Tx span out of the caller's frame buffer
// into req's own scratch storage, so the request stays valid after the
// reader reuses that buffer for the next frame.
func (req *Request) detach() {
	n := len(req.Data)
	for i := range req.Tx {
		n += len(req.Tx[i].Data)
	}
	if n == 0 {
		return
	}
	if cap(req.scratch) < n {
		req.scratch = make([]byte, n)
	}
	buf := req.scratch[:n]
	off := 0
	if len(req.Data) > 0 {
		off += copy(buf, req.Data)
		req.Data = buf[:off:off]
	}
	for i := range req.Tx {
		start := off
		off += copy(buf[off:], req.Tx[i].Data)
		req.Tx[i].Data = buf[start:off:off]
	}
	req.scratch = buf
}

// --- cursor helpers ---

type wreader struct {
	b   []byte
	off int
	bad bool
}

func (r *wreader) need(n int) bool {
	if r.bad || r.off+n > len(r.b) {
		r.bad = true
		return false
	}
	return true
}

func (r *wreader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *wreader) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *wreader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *wreader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *wreader) bytes(n int) []byte {
	if n < 0 || !r.need(n) {
		r.bad = true
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *wreader) str() string {
	n := int(r.u16())
	return string(r.bytes(n))
}

func (r *wreader) done() bool { return !r.bad && r.off == len(r.b) }

type wwriter struct{ b []byte }

func (w *wwriter) u8(v uint8)   { w.b = append(w.b, v) }
func (w *wwriter) u16(v uint16) { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *wwriter) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *wwriter) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *wwriter) bytes(p []byte) {
	w.b = append(w.b, p...)
}
func (w *wwriter) str(s string) {
	w.u16(uint16(len(s)))
	w.b = append(w.b, s...)
}

// ParseRequest decodes one request payload. It never panics: any
// malformed input yields a *WireError (with the request ID when the
// header was intact, so the error can be answered on the right request).
func ParseRequest(payload []byte) (*Request, *WireError) {
	req := &Request{}
	return req, parseRequestInto(req, payload)
}

// parseRequestInto is ParseRequest decoding into a caller-owned (often
// pooled) request, reusing its Tx backing array: the allocation-free
// form the server's read loop runs per frame. Data and Tx spans alias
// payload until detach is called.
func parseRequestInto(req *Request, payload []byte) *WireError {
	req.reset()
	if len(payload) < minPayload {
		return wireErr(ErrBadFrame, "serve: short payload")
	}
	r := wreader{b: payload}
	req.Op = Op(r.u8())
	req.ID = r.u32()
	switch req.Op {
	case OpHello:
		req.Client = r.str()
		// v2 negotiation: one trailing byte is the highest version the
		// client speaks. A v1 HELLO ends at the name.
		if r.off == len(r.b)-1 {
			req.Proto = r.u8()
			if req.Proto < ProtoV1 {
				return wireErr(ErrBadFrame, "serve: protocol version 0 offered")
			}
		}
		if r.done() && req.Client == "" {
			return wireErr(ErrBadFrame, "serve: empty client name")
		}
	case OpOpen:
		req.Name = r.str()
		req.Size = r.u64()
		if r.done() && req.Name == "" {
			return wireErr(ErrBadFrame, "serve: empty pool name")
		}
	case OpAttach:
		req.Writable = r.u8() != 0
	case OpRead:
		req.Off = r.u32()
		req.Len = r.u32()
		if r.done() && req.Len > MaxIO {
			return wireErr(ErrTooLarge, "serve: read span over MaxIO")
		}
	case OpWrite:
		req.Off = r.u32()
		n := r.u32()
		if n > MaxIO {
			return wireErr(ErrTooLarge, "serve: write span over MaxIO")
		}
		req.Data = r.bytes(int(n))
	case OpTxCommit:
		count := int(r.u16())
		for i := 0; i < count && !r.bad; i++ {
			off := r.u32()
			n := r.u32()
			if n > MaxIO {
				return wireErr(ErrTooLarge, "serve: tx write span over MaxIO")
			}
			req.Tx = append(req.Tx, TxWrite{Off: off, Data: r.bytes(int(n))})
		}
	case OpDetach, OpStats, OpTrace, OpClose:
		// no body
	case OpBatch:
		// Batches are containers parsed by parseBatchInto; one reaching
		// the scalar parser is nested inside another batch.
		return wireErr(ErrBadFrame, "serve: nested batch")
	default:
		return wireErr(ErrBadOp, "serve: unknown opcode")
	}
	if !r.done() {
		return wireErr(ErrBadFrame, "serve: truncated or oversized body")
	}
	return nil
}

// EncodeRequest renders req as a frame payload (without the length
// prefix).
func EncodeRequest(req *Request) []byte {
	return appendRequest(make([]byte, 0, 16+len(req.Data)), req)
}

// appendRequest appends req's frame payload to dst (append-style: dst
// may be nil, and the grown slice is returned) so callers can reuse one
// encode buffer across requests.
func appendRequest(dst []byte, req *Request) []byte {
	w := wwriter{b: dst}
	w.u8(uint8(req.Op))
	w.u32(req.ID)
	switch req.Op {
	case OpHello:
		w.str(req.Client)
		if req.Proto != 0 {
			w.u8(req.Proto)
		}
	case OpOpen:
		w.str(req.Name)
		w.u64(req.Size)
	case OpAttach:
		if req.Writable {
			w.u8(1)
		} else {
			w.u8(0)
		}
	case OpRead:
		w.u32(req.Off)
		w.u32(req.Len)
	case OpWrite:
		w.u32(req.Off)
		w.u32(uint32(len(req.Data)))
		w.bytes(req.Data)
	case OpTxCommit:
		w.u16(uint16(len(req.Tx)))
		for _, t := range req.Tx {
			w.u32(t.Off)
			w.u32(uint32(len(t.Data)))
			w.bytes(t.Data)
		}
	}
	return w.b
}

// Batch is one decoded v2 BATCH container: a batch correlation ID and
// the sub-requests it carries. Each sub-request keeps its own ID so its
// sub-response can be matched even when completions are reordered.
type Batch struct {
	ID   uint32
	Reqs []*Request
}

// parseBatchInto decodes a BATCH payload into b, drawing sub-request
// storage from getReq (the server passes its request pool's getter, so
// a steady batch stream parses without allocating). Sub-request Data
// and Tx spans alias payload until detach. Any malformed sub-request
// fails the whole batch: requests already drawn stay in b.Reqs so the
// caller can return them to the pool.
func parseBatchInto(b *Batch, payload []byte, getReq func() *Request) *WireError {
	b.ID, b.Reqs = 0, b.Reqs[:0]
	if len(payload) < minPayload+2 {
		return wireErr(ErrBadFrame, "serve: short batch payload")
	}
	r := wreader{b: payload}
	if Op(r.u8()) != OpBatch {
		return wireErr(ErrBadFrame, "serve: not a batch payload")
	}
	b.ID = r.u32()
	count := int(r.u16())
	if count == 0 {
		return wireErr(ErrBadFrame, "serve: empty batch")
	}
	if count > MaxBatch {
		return wireErr(ErrTooLarge, "serve: batch count over limit")
	}
	for i := 0; i < count; i++ {
		n := int(r.u32())
		sub := r.bytes(n)
		if r.bad {
			return wireErr(ErrBadFrame, "serve: truncated batch entry")
		}
		req := getReq()
		b.Reqs = append(b.Reqs, req)
		if werr := parseRequestInto(req, sub); werr != nil {
			return werr
		}
		if req.Op == OpHello {
			// Version renegotiation mid-batch would change the framing
			// rules the batch itself depends on.
			return wireErr(ErrBadFrame, "serve: HELLO inside batch")
		}
	}
	if !r.done() {
		return wireErr(ErrBadFrame, "serve: trailing bytes after batch entries")
	}
	return nil
}

// BatchHasSessionOp reports whether a BATCH payload carries a
// sub-request that would change which backend owns the connection (OPEN,
// CLOSE) or renegotiate the protocol (HELLO). It reads only the
// container's framing and each entry's op byte, so a router can answer
// without parsing the entries. A malformed container reports false —
// parseBatchInto is the authority on rejecting those; on every payload
// it accepts, the answer is whether some entry is an OPEN or a CLOSE.
func BatchHasSessionOp(payload []byte) bool {
	r := wreader{b: payload, off: minPayload}
	for count := r.u16(); count > 0; count-- {
		sub := r.bytes(int(r.u32()))
		if r.bad || len(sub) == 0 {
			return false
		}
		switch Op(sub[0]) {
		case OpHello, OpOpen, OpClose:
			return true
		}
	}
	return false
}

// AppendBatch appends one BATCH payload carrying reqs (append-style, as
// appendRequest). The caller assigns sub-request IDs.
func AppendBatch(dst []byte, id uint32, reqs []*Request) []byte {
	w := wwriter{b: dst}
	w.u8(uint8(OpBatch))
	w.u32(id)
	w.u16(uint16(len(reqs)))
	for _, req := range reqs {
		mark := len(w.b)
		w.u32(0) // length, backfilled below
		w.b = appendRequest(w.b, req)
		binary.BigEndian.PutUint32(w.b[mark:], uint32(len(w.b)-mark-4))
	}
	return w.b
}

// appendBatchRespHeader starts a StatusBatch response payload; the
// server then appends one appendBatchRespEntry per sub-request.
func appendBatchRespHeader(dst []byte, id uint32, count int) []byte {
	w := wwriter{b: dst}
	w.u8(uint8(StatusBatch))
	w.u32(id)
	w.u16(uint16(count))
	return w.b
}

// appendBatchRespEntry appends one length-prefixed sub-response.
func appendBatchRespEntry(dst []byte, resp *Response) []byte {
	mark := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, 0)
	dst = appendResponse(dst, resp)
	binary.BigEndian.PutUint32(dst[mark:], uint32(len(dst)-mark-4))
	return dst
}

// batchRespIter walks the sub-responses of a StatusBatch payload
// without allocating; entries may arrive in any order relative to the
// requests, so callers match by the sub-response ID.
type batchRespIter struct {
	r    wreader
	id   uint32
	left int
}

// initBatchResp validates the StatusBatch header of payload and
// prepares iteration.
func (it *batchRespIter) init(payload []byte) *WireError {
	it.r = wreader{b: payload}
	if len(payload) < minPayload+2 {
		return wireErr(ErrBadFrame, "serve: short batch response")
	}
	if Status(it.r.u8()) != StatusBatch {
		return wireErr(ErrBadFrame, "serve: not a batch response")
	}
	it.id = it.r.u32()
	it.left = int(it.r.u16())
	if it.left == 0 {
		return wireErr(ErrBadFrame, "serve: empty batch response")
	}
	if it.left > MaxBatch {
		return wireErr(ErrTooLarge, "serve: batch response count over limit")
	}
	return nil
}

// next returns the next sub-response payload, or nil when exhausted;
// a framing error yields (nil, werr).
func (it *batchRespIter) next() ([]byte, *WireError) {
	if it.left == 0 {
		if !it.r.done() {
			return nil, wireErr(ErrBadFrame, "serve: trailing bytes after batch response")
		}
		return nil, nil
	}
	it.left--
	n := int(it.r.u32())
	sub := it.r.bytes(n)
	if it.r.bad {
		return nil, wireErr(ErrBadFrame, "serve: truncated batch response entry")
	}
	if len(sub) < minPayload {
		return nil, wireErr(ErrBadFrame, "serve: short batch response entry")
	}
	return sub, nil
}

// Response is one decoded server response.
type Response struct {
	Status Status
	ID     uint32
	Code   ErrCode // StatusErr only
	Msg    string  // StatusErr only
	SID    uint64  // OPEN result
	Data   []byte  // READ and STATS result
}

// EncodeResponse renders a response payload.
func EncodeResponse(resp *Response) []byte {
	return appendResponse(make([]byte, 0, 16+len(resp.Data)), resp)
}

// AppendResponse appends resp's frame payload to dst. Exported for the
// cluster router, which answers some requests (HELLO, routing errors)
// itself with a reusable encode buffer.
func AppendResponse(dst []byte, resp *Response) []byte { return appendResponse(dst, resp) }

// appendResponse appends resp's frame payload to dst (append-style, as
// appendRequest) so the server's workers can reuse one encode buffer
// per worker.
func appendResponse(dst []byte, resp *Response) []byte {
	w := wwriter{b: dst}
	w.u8(uint8(resp.Status))
	w.u32(resp.ID)
	switch resp.Status {
	case StatusErr:
		w.u16(uint16(resp.Code))
		w.str(resp.Msg)
	case StatusOK:
		if resp.SID != 0 {
			w.u64(resp.SID)
		} else {
			w.bytes(resp.Data)
		}
	}
	return w.b
}

// ParseResponse decodes a response payload. wantSID tells the parser the
// OK body carries a session ID (OPEN) rather than raw data. SID 0 means
// "no session" to the server, so an OPEN OK carrying it is malformed.
func ParseResponse(payload []byte, wantSID bool) (*Response, *WireError) {
	resp := &Response{}
	if werr := parseResponseInto(resp, payload, wantSID); werr != nil {
		return nil, werr
	}
	return resp, nil
}

// parseResponseInto is ParseResponse decoding into a caller-owned
// response (allocation-free except the StatusErr message). Data aliases
// payload.
func parseResponseInto(resp *Response, payload []byte, wantSID bool) *WireError {
	*resp = Response{}
	if len(payload) < minPayload {
		return wireErr(ErrBadFrame, "serve: short response")
	}
	r := wreader{b: payload}
	resp.Status = Status(r.u8())
	resp.ID = r.u32()
	switch resp.Status {
	case StatusErr:
		resp.Code = ErrCode(r.u16())
		resp.Msg = r.str()
		if r.bad {
			return wireErr(ErrBadFrame, "serve: truncated error response")
		}
	case StatusOK:
		if wantSID {
			resp.SID = r.u64()
			if r.bad {
				return wireErr(ErrBadFrame, "serve: truncated open response")
			}
			if resp.SID == 0 {
				return wireErr(ErrBadFrame, "serve: open response with session ID 0")
			}
		} else {
			resp.Data = r.b[r.off:]
		}
	case StatusRetry:
		// no body
	default:
		return wireErr(ErrBadFrame, "serve: unknown response status")
	}
	return nil
}
