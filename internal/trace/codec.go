package trace

import (
	"encoding/binary"
	"errors"
	"fmt"

	"domainvirt/internal/core"
	"domainvirt/internal/memlayout"
)

// Binary trace format: a 8-byte header ("PMOTRC" + 2-byte version),
// followed by events. Each event is a kind byte followed by
// varint-encoded fields. Access events delta-encode the VA against the
// previous access of the same thread for compactness. The encoder and
// the decoder below are the format's only implementation.

// FormatVersion is the binary trace format's version, the last two
// bytes of the header. A store that keys traces by content hashes it,
// so a trace written in another format never sits under a current key.
const FormatVersion = 1

var fileMagic = [8]byte{'P', 'M', 'O', 'T', 'R', 'C', FormatVersion >> 8, FormatVersion & 0xff}

// Event kinds on the wire.
const (
	evInstr uint8 = iota + 1
	evLoad
	evStore
	evSetPerm
	evAttach
	evDetach
	evFence
	evFetch
	evEnd
)

// maxEventBytes bounds one encoded event: a kind byte and four fields of
// at most binary.MaxVarintLen64 bytes each.
const maxEventBytes = 1 + 4*binary.MaxVarintLen64

var errBadMagic = errors.New("trace: bad magic or unsupported version")

// errTruncated is the error for bytes that end inside an event or
// before the end marker, or hold a varint longer than 64 bits.
var errTruncated = errors.New("trace: truncated (missing end marker)")

// errFieldRange is the error for a field too wide for its type: a
// thread, domain, site or size past 32 bits, or a permission past 8.
var errFieldRange = errors.New("trace: event field out of range")

// vaState is the per-thread last VA that access and fetch events are
// delta-encoded against. The VA of the thread that issued the latest
// access or fetch lives in va, so the map is touched only when the
// issuing thread changes.
type vaState struct {
	th   core.ThreadID
	va   memlayout.VA
	last map[core.ThreadID]memlayout.VA
}

// newVAState returns the state at the start of a trace: every thread's
// last VA is 0, and thread 0 is current.
func newVAState() vaState {
	return vaState{last: make(map[core.ThreadID]memlayout.VA)}
}

// of makes th the current thread and returns its last VA for update.
func (s *vaState) of(th core.ThreadID) *memlayout.VA {
	if th != s.th {
		s.last[s.th] = s.va
		s.th, s.va = th, s.last[th]
	}
	return &s.va
}

// delta makes va th's last VA and returns its distance from the one
// before, zigzag-encoded as binary.AppendVarint encodes it.
func (s *vaState) delta(th core.ThreadID, va memlayout.VA) uint64 {
	last := s.of(th)
	d := int64(va - *last)
	*last = va
	return uint64(d<<1) ^ uint64(d>>63)
}

// apply is delta's inverse: it moves th's last VA by the zigzag-encoded
// distance u and returns the result.
func (s *vaState) apply(th core.ThreadID, u uint64) memlayout.VA {
	last := s.of(th)
	*last += memlayout.VA(int64(u>>1) ^ -int64(u&1))
	return *last
}

// encoder appends events in the binary trace format to buf.
type encoder struct {
	buf []byte
	va  vaState
}

func newEncoder(buf []byte) encoder { return encoder{buf: buf, va: newVAState()} }

// event appends a kind byte and its fields as uvarints.
func (e *encoder) event(kind uint8, fields ...uint64) {
	e.buf = append(e.buf, kind)
	for _, f := range fields {
		e.buf = binary.AppendUvarint(e.buf, f)
	}
}

func (e *encoder) instr(th core.ThreadID, n uint64) { e.event(evInstr, uint64(th), n) }

func (e *encoder) access(th core.ThreadID, va memlayout.VA, size uint32, write bool) {
	kind := evLoad
	if write {
		kind = evStore
	}
	e.event(kind, uint64(th), e.va.delta(th, va), uint64(size))
}

func (e *encoder) fetch(th core.ThreadID, va memlayout.VA) {
	e.event(evFetch, uint64(th), e.va.delta(th, va))
}

func (e *encoder) setPerm(th core.ThreadID, d core.DomainID, p core.Perm, site core.SiteID) {
	e.event(evSetPerm, uint64(th), uint64(d), uint64(p), uint64(site))
}

func (e *encoder) attach(d core.DomainID, r memlayout.Region, perm core.Perm) {
	e.event(evAttach, uint64(d), uint64(r.Base), r.Size, uint64(perm))
}

func (e *encoder) detach(d core.DomainID) { e.event(evDetach, uint64(d)) }

func (e *encoder) fence(th core.ThreadID) { e.event(evFence, uint64(th)) }

func (e *encoder) end() { e.buf = append(e.buf, evEnd) }

// decoder is a cursor over trace event bytes. Like bincodec.Reader it
// latches its first error and reads zero values after it, so next
// checks once per event rather than once per field.
type decoder struct {
	data []byte
	pos  int
	err  error
	va   vaState
}

// newDecoder returns a decoder at data[pos:] whose VA state is that of
// the start of a trace.
func newDecoder(data []byte, pos int) decoder {
	return decoder{data: data, pos: pos, va: newVAState()}
}

// fail latches err unless an earlier error is latched, and moves the
// cursor to the end of data so later reads return zero values.
func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.pos = len(d.data)
}

// uvarint reads one field. A one-byte varint, the common case, is read
// without calling binary.Uvarint.
func (d *decoder) uvarint() uint64 {
	if d.pos < len(d.data) && d.data[d.pos] < 0x80 {
		d.pos++
		return uint64(d.data[d.pos-1])
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail(errTruncated)
		return 0
	}
	d.pos += n
	return v
}

// fits reports whether every field so far decoded and v fits in bits
// bits. A wider value would alias a smaller one once cast to its field's
// type, so it latches errFieldRange.
func (d *decoder) fits(v uint64, bits uint) bool {
	if d.err != nil {
		return false
	}
	if v>>bits != 0 {
		d.fail(errFieldRange)
		return false
	}
	return true
}

// next decodes one event and delivers it to sink. It returns the
// event's kind — evEnd for the end marker, which reaches no sink — or 0
// with d.err set.
func (d *decoder) next(sink Sink) uint8 {
	if d.pos >= len(d.data) {
		d.fail(errTruncated)
		return 0
	}
	kind := d.data[d.pos]
	d.pos++
	switch kind {
	case evInstr:
		th, n := d.uvarint(), d.uvarint()
		if d.fits(th, 32) {
			sink.Instr(core.ThreadID(th), n)
		}
	case evLoad, evStore:
		th, delta, size := d.uvarint(), d.uvarint(), d.uvarint()
		if d.fits(th|size, 32) {
			tid := core.ThreadID(th)
			sink.Access(tid, d.va.apply(tid, delta), uint32(size), kind == evStore)
		}
	case evFetch:
		th, delta := d.uvarint(), d.uvarint()
		if d.fits(th, 32) {
			tid := core.ThreadID(th)
			sink.Fetch(tid, d.va.apply(tid, delta))
		}
	case evSetPerm:
		th, dom, p, site := d.uvarint(), d.uvarint(), d.uvarint(), d.uvarint()
		if d.fits(th|dom|site, 32) && d.fits(p, 8) {
			sink.SetPerm(core.ThreadID(th), core.DomainID(dom), core.Perm(p), core.SiteID(site))
		}
	case evAttach:
		dom, base, size, perm := d.uvarint(), d.uvarint(), d.uvarint(), d.uvarint()
		if d.fits(dom, 32) && d.fits(perm, 8) {
			r := memlayout.Region{Base: memlayout.VA(base), Size: size}
			if err := sink.Attach(core.DomainID(dom), r, core.Perm(perm)); err != nil {
				d.fail(fmt.Errorf("trace: attach domain %d: %w", dom, err))
			}
		}
	case evDetach:
		if dom := d.uvarint(); d.fits(dom, 32) {
			sink.Detach(core.DomainID(dom))
		}
	case evFence:
		if th := d.uvarint(); d.fits(th, 32) {
			sink.Fence(core.ThreadID(th))
		}
	case evEnd:
	default:
		d.fail(fmt.Errorf("trace: unknown event kind %d", kind))
	}
	if d.err != nil {
		return 0
	}
	return kind
}
