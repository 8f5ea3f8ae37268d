// Package sweep fans an experiment grid out to pmoworker daemons. The
// coordinator partitions the grid into cells, ships each cell's opaque
// spec to a worker over a length-prefixed frame protocol in the style of
// internal/serve, and collects opaque result payloads. Workers that miss
// a snapshot pull it from the coordinator mid-cell; workers that die
// mid-sweep degrade to local re-execution of their lost cells — a
// shrinking worker set changes wall-clock time, never results. With no
// workers at all, the pool runs every cell locally: a local grid is the
// same pool with an empty address list.
//
// The package is deliberately ignorant of what a cell is: specs and
// results are byte slices produced and consumed by the root package
// (see domainvirt.RunSweepCell), which keeps the dependency arrow
// pointing root → sweep.
package sweep

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"domainvirt/internal/bincodec"
)

// ProtoVersion is the handshake version; both ends must match exactly.
// Version 2 dropped the advisory snapshot-key list from RUN frames, so a
// version-1 peer fails at HELLO instead of misparsing RUN.
const ProtoVersion = 2

// maxFrame bounds a declared frame length. Snapshots of large machines
// dominate frame sizes; 1 GiB is far above any real checkpoint while
// still rejecting garbage lengths from a corrupt stream.
const maxFrame = 1 << 30

// Frame type tags (first payload byte).
const (
	tHello    = 'H' // both directions: u32 version
	tRun      = 'R' // coordinator->worker: u32 id, bytes spec
	tNeedSnap = 'N' // worker->coordinator: str key
	tSnap     = 'S' // coordinator->worker: str key, bool found, bytes
	tResult   = 'D' // worker->coordinator: u32 id, bytes payload
	tError    = 'E' // worker->coordinator: u32 id, str message
)

// Fetch pulls one content-addressed snapshot; ok=false means the far
// side does not hold it either (the caller rebuilds).
type Fetch func(key string) ([]byte, bool)

// Runner executes one opaque cell spec, pulling missing snapshots
// through fetch, and returns the opaque result payload.
type Runner func(spec []byte, fetch Fetch) ([]byte, error)

// CellError is a deterministic remote cell failure: the workload itself
// errored on the worker. It is distinct from a transport error — the
// same cell would fail locally too, so the pool reports it instead of
// re-running.
type CellError struct{ Msg string }

func (e *CellError) Error() string { return "sweep: remote cell failed: " + e.Msg }

// readFrame reads one length-prefixed frame payload into a fresh buffer,
// so decoded fields may alias it.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("sweep: declared frame length %d exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// writeFrame writes one length-prefixed frame payload.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Frame builders.

func helloFrame() []byte {
	b := []byte{tHello}
	return bincodec.U32(b, ProtoVersion)
}

func runFrame(id uint32, spec []byte) []byte {
	return bincodec.Bytes(bincodec.U32([]byte{tRun}, id), spec)
}

func needSnapFrame(key string) []byte {
	return bincodec.Str([]byte{tNeedSnap}, key)
}

func snapFrame(key string, found bool, data []byte) []byte {
	b := bincodec.Str([]byte{tSnap}, key)
	b = bincodec.Bool(b, found)
	return bincodec.Bytes(b, data)
}

func resultFrame(id uint32, payload []byte) []byte {
	return bincodec.Bytes(bincodec.U32([]byte{tResult}, id), payload)
}

func errorFrame(id uint32, msg string) []byte {
	return bincodec.Str(bincodec.U32([]byte{tError}, id), msg)
}

// frameType splits a frame payload into its type tag and a reader over
// the fields that follow.
func frameType(p []byte) (byte, *bincodec.Reader, error) {
	if len(p) == 0 {
		return 0, nil, errors.New("sweep: empty frame")
	}
	return p[0], bincodec.NewReader(p[1:]), nil
}

// checkHello validates a handshake frame.
func checkHello(p []byte) error {
	t, r, err := frameType(p)
	if err != nil {
		return err
	}
	if t != tHello {
		return fmt.Errorf("sweep: expected HELLO, got frame %q", t)
	}
	v := r.U32()
	if err := r.Err(); err != nil {
		return fmt.Errorf("sweep: bad HELLO: %w", err)
	}
	if v != ProtoVersion {
		return fmt.Errorf("sweep: protocol version mismatch: peer %d, local %d", v, ProtoVersion)
	}
	return nil
}

// endFrame latches an error for trailing bytes, so every frame that decodes
// re-encodes to the same bytes.
func endFrame(t byte, r *bincodec.Reader) error {
	if r.Err() == nil && r.Len() != 0 {
		r.Fail(fmt.Errorf("%d trailing bytes", r.Len()))
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("sweep: bad %q frame: %w", t, err)
	}
	return nil
}

// decodeRun decodes a RUN frame. spec aliases p.
func decodeRun(p []byte) (id uint32, spec []byte, err error) {
	t, r, err := frameType(p)
	if err != nil {
		return 0, nil, err
	}
	if t != tRun {
		return 0, nil, fmt.Errorf("sweep: expected RUN, got frame %q", t)
	}
	id = r.U32()
	spec = r.Bytes()
	if err := endFrame(t, r); err != nil {
		return 0, nil, err
	}
	return id, spec, nil
}

// reply is one worker->coordinator frame answering a RUN: a NEEDSNAP
// (key), a RESULT (id, payload) or an ERROR (id, msg).
type reply struct {
	t       byte
	id      uint32
	key     string
	payload []byte // aliases the frame
	msg     string
}

// decodeReply decodes the frames a coordinator reads while a cell runs.
func decodeReply(p []byte) (reply, error) {
	t, r, err := frameType(p)
	if err != nil {
		return reply{}, err
	}
	rp := reply{t: t}
	switch t {
	case tNeedSnap:
		rp.key = r.Str()
	case tResult:
		rp.id = r.U32()
		rp.payload = r.Bytes()
	case tError:
		rp.id = r.U32()
		rp.msg = r.Str()
	default:
		return reply{}, fmt.Errorf("sweep: unexpected frame %q", t)
	}
	if err := endFrame(t, r); err != nil {
		return reply{}, err
	}
	return rp, nil
}

// decodeSnap decodes the SNAP frame answering a worker's NEEDSNAP;
// ok=false for a malformed frame or a snapshot the coordinator lacks.
func decodeSnap(p []byte) (data []byte, ok bool) {
	t, r, err := frameType(p)
	if err != nil || t != tSnap {
		return nil, false
	}
	r.Str() // key echo
	found := r.Bool()
	data = r.Bytes()
	if endFrame(t, r) != nil || !found {
		return nil, false
	}
	return data, true
}
