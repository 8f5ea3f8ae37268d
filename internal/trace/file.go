package trace

import (
	"fmt"
	"io"

	"domainvirt/internal/core"
	"domainvirt/internal/memlayout"
)

// bufferBytes is both the size Writer lets its buffer reach before
// writing it out and the window Replay decodes from.
const bufferBytes = 64 << 10

// Writer records an event stream to w in the binary trace format. It
// implements Sink. Close must be called to flush the end marker.
type Writer struct {
	w   io.Writer
	enc encoder
	err error
}

// NewWriter returns a trace Writer over w.
func NewWriter(w io.Writer) (*Writer, error) {
	buf := make([]byte, 0, bufferBytes+maxEventBytes)
	return &Writer{w: w, enc: newEncoder(append(buf, fileMagic[:]...))}, nil
}

// spill writes the buffer out once it passes bufferBytes.
func (w *Writer) spill() {
	if len(w.enc.buf) >= bufferBytes {
		w.flush()
	}
}

func (w *Writer) flush() {
	if w.err == nil {
		_, w.err = w.w.Write(w.enc.buf)
	}
	w.enc.buf = w.enc.buf[:0]
}

// Instr implements Sink.
func (w *Writer) Instr(th core.ThreadID, n uint64) {
	w.enc.instr(th, n)
	w.spill()
}

// Access implements Sink.
func (w *Writer) Access(th core.ThreadID, va memlayout.VA, size uint32, write bool) bool {
	w.enc.access(th, va, size, write)
	w.spill()
	return true
}

// Fetch implements Sink.
func (w *Writer) Fetch(th core.ThreadID, va memlayout.VA) bool {
	w.enc.fetch(th, va)
	w.spill()
	return true
}

// SetPerm implements Sink.
func (w *Writer) SetPerm(th core.ThreadID, d core.DomainID, p core.Perm, site core.SiteID) {
	w.enc.setPerm(th, d, p, site)
	w.spill()
}

// Attach implements Sink. It returns the first write error, if any.
func (w *Writer) Attach(d core.DomainID, r memlayout.Region, perm core.Perm) error {
	w.enc.attach(d, r, perm)
	w.spill()
	return w.err
}

// Detach implements Sink.
func (w *Writer) Detach(d core.DomainID) {
	w.enc.detach(d)
	w.spill()
}

// Fence implements Sink.
func (w *Writer) Fence(th core.ThreadID) {
	w.enc.fence(th)
	w.spill()
}

// Close writes the end marker and flushes buffered data.
func (w *Writer) Close() error {
	w.enc.end()
	w.flush()
	return w.err
}

// Replay reads a binary trace from r and feeds it to sink. It returns the
// number of events replayed. It decodes from a window of bufferBytes,
// refilled from r whenever less than one maximal event remains in it, so
// it never holds a whole trace.
func Replay(r io.Reader, sink Sink) (uint64, error) {
	window := make([]byte, bufferBytes)
	if _, err := io.ReadFull(r, window[:len(fileMagic)]); err != nil {
		return 0, fmt.Errorf("trace: reading header: %w", err)
	}
	if [8]byte(window[:8]) != fileMagic {
		return 0, errBadMagic
	}
	d := newDecoder(nil, 0)
	eof := false
	var n uint64
	for {
		if !eof && len(d.data)-d.pos < maxEventBytes {
			kept := copy(window, d.data[d.pos:])
			got, err := io.ReadFull(r, window[kept:])
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				eof = true
			} else if err != nil {
				return n, err
			}
			d.data, d.pos = window[:kept+got], 0
		}
		switch d.next(sink) {
		case evEnd:
			return n, nil
		case 0:
			return n, d.err
		}
		n++
	}
}
