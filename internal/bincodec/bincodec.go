// Package bincodec is the binary codec of machine snapshots and of the
// sweep protocol's frames: little-endian append primitives, a Reader that
// decodes them, and a walker (Append, Decode) that derives a value's
// format from its Go type. Encoders append to a caller-owned buffer;
// decoders consume through a Reader that accumulates the first error and
// bounds-checks every declared count against the bytes actually present,
// so a hostile or truncated input fails with ErrShort/ErrCount instead of
// provoking a huge allocation or a slice panic. reflect and unsafe stay
// inside this package.
package bincodec

import (
	"encoding/binary"
	"errors"
	"math"
)

// Decode errors. Callers typically wrap them with codec-level context.
var (
	// ErrShort marks a read past the end of the input.
	ErrShort = errors.New("bincodec: input truncated")
	// ErrCount marks a declared element count larger than the remaining
	// input could possibly hold.
	ErrCount = errors.New("bincodec: implausible element count")
)

// U64 appends v little-endian.
func U64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// U32 appends v little-endian.
func U32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// U8 appends v.
func U8(b []byte, v uint8) []byte { return append(b, v) }

// Bool appends v as one byte.
func Bool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Str appends a u32 length prefix and the bytes of s.
func Str(b []byte, s string) []byte {
	b = U32(b, uint32(len(s)))
	return append(b, s...)
}

// Bytes appends a u32 length prefix and p.
func Bytes(b []byte, p []byte) []byte {
	b = U32(b, uint32(len(p)))
	return append(b, p...)
}

// Reader consumes a buffer written with the append primitives. The first
// failed read latches Err; subsequent reads return zero values, so a
// decoder can run its full field sequence and check Err once at the end.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b. The Reader aliases b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unconsumed bytes.
func (r *Reader) Len() int { return len(r.b) }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrShort
	}
	r.b = nil
}

// Fail latches a caller-detected semantic error (e.g. a field count that
// does not match the compiled-in struct) so it surfaces through Err like
// any other decode failure.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Bool reads one byte; any nonzero value is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Str reads a u32-length-prefixed string.
func (r *Reader) Str() string { return string(r.Take(r.Count(1))) }

// Bytes reads a u32-length-prefixed byte slice, aliasing the input.
func (r *Reader) Bytes() []byte { return r.Take(r.Count(1)) }

// Count reads a u32 element count and validates that n elements of at
// least elemSize bytes each could still be present; an implausible count
// (a length-bomb in a hostile input) latches ErrCount so the caller never
// allocates for it.
func (r *Reader) Count(elemSize int) int {
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if uint64(n) > math.MaxInt32 || uint64(n)*uint64(elemSize) > uint64(len(r.b)) {
		if r.err == nil {
			r.err = ErrCount
		}
		r.b = nil
		return 0
	}
	return int(n)
}

// Take consumes and returns the next n bytes, aliasing the input.
func (r *Reader) Take(n int) []byte {
	if n < 0 || len(r.b) < n {
		r.fail()
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}
