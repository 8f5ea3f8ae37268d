package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"

	"domainvirt/internal/core"
	"domainvirt/internal/memlayout"
)

// TestTraceFormatGolden pins the binary trace format byte for byte: the
// Writer output of a random stream, and the segments of a rotating
// Capture whose segment heads re-emit an attach table and open windows.
// Recorded traces and captures outlive the code that wrote them, so the
// bytes may change only together with the format version.
func TestTraceFormatGolden(t *testing.T) {
	const (
		wantWriter  = "30b34aaf1481d8b2fb93c2f8214be5e31da4c447985d6678015780ba93efa551"
		wantCapture = "1a14aed6740ac31ff580decb8a0f9cf562e800e7cce89fcebb2cf1b4ce367e5a"
	)
	var w bytes.Buffer
	tw, err := NewWriter(&w)
	if err != nil {
		t.Fatal(err)
	}
	emitRandom(t, tw, 11, 500)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	segs := &memSegments{}
	c := NewCapture(CaptureOptions{Open: segs.open, MaxSegmentBytes: 256})
	c.Attach(2, memlayout.Region{Base: 0x20000, Size: 1 << 16}, core.PermNone)
	c.Attach(1, memlayout.Region{Base: 0x10000, Size: 1 << 16}, core.PermNone)
	c.SetPerm(0, 1, core.PermRW, 7)
	c.SetPerm(1, 2, core.PermR, 8)
	for i := 0; i < 120; i++ {
		th := core.ThreadID(i % 2)
		base := memlayout.VA(0x10000 * (1 + int(th)))
		c.Instr(th, uint64(1+i%9))
		c.Access(th, base+memlayout.VA(i*40%0x8000), uint32(1+i%8), i%3 == 0)
		if i%10 == 0 {
			c.Fetch(th, base+memlayout.VA(i*4))
			c.Fence(th)
		}
	}
	c.SetPerm(0, 1, core.PermNone, 7)
	c.SetPerm(1, 2, core.PermNone, 8)
	c.Detach(2)
	c.Detach(1)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if len(segs.bufs) < 3 {
		t.Fatalf("capture rotated into %d segments, want at least 3", len(segs.bufs))
	}
	var all bytes.Buffer
	for _, b := range segs.bufs {
		all.Write(b.Bytes())
	}

	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"Writer", w.Bytes(), wantWriter},
		{"Capture", all.Bytes(), wantCapture},
	} {
		sum := sha256.Sum256(tc.data)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s trace bytes changed: %d bytes, sha256 %s, want %s. "+
				"A format change must bump FormatVersion.",
				tc.name, len(tc.data), got, tc.want)
		}
	}
}

// decodeWhole runs one decoder over all of data up to the end marker,
// as Replay would with a window the size of the trace. It is the
// reference that Replay's window refills are checked against.
func decodeWhole(data []byte, sink Sink) (uint64, error) {
	if len(data) < len(fileMagic) || [8]byte(data[:8]) != fileMagic {
		return 0, errBadMagic
	}
	d := newDecoder(data, len(fileMagic))
	var n uint64
	for {
		switch d.next(sink) {
		case evEnd:
			return n, nil
		case 0:
			return n, d.err
		}
		n++
	}
}

// rawTrace builds a trace from events given as raw wire fields, so a
// test can write values no Sink method can express.
func rawTrace(events ...[]uint64) []byte {
	e := newEncoder(fileMagic[:])
	for _, ev := range events {
		e.event(uint8(ev[0]), ev[1:]...)
	}
	e.end()
	return e.buf
}

// TestDecoderRejectsOversizedFields: a field wider than its type must
// fail decode rather than alias a smaller value once cast — thread
// 2^32+1 replaying as thread 1, a size of 2^32+8 as an 8-byte load.
// Replay's windowed decode and a whole-slice decode must both reject it.
func TestDecoderRejectsOversizedFields(t *testing.T) {
	const wide = 1<<32 + 1
	for _, tc := range []struct {
		name   string
		events [][]uint64
	}{
		{"aliasing thread and size", [][]uint64{{uint64(evInstr), wide, 5}, {uint64(evLoad), 1, 0x2000, 1<<32 + 8}}},
		{"instr thread", [][]uint64{{uint64(evInstr), wide, 5}}},
		{"load thread", [][]uint64{{uint64(evLoad), wide, 0, 8}}},
		{"store size", [][]uint64{{uint64(evStore), 1, 0, wide}}},
		{"fetch thread", [][]uint64{{uint64(evFetch), wide, 0}}},
		{"setperm thread", [][]uint64{{uint64(evSetPerm), wide, 1, 1, 0}}},
		{"setperm domain", [][]uint64{{uint64(evSetPerm), 1, wide, 1, 0}}},
		{"setperm perm", [][]uint64{{uint64(evSetPerm), 1, 1, 256, 0}}},
		{"setperm site", [][]uint64{{uint64(evSetPerm), 1, 1, 1, wide}}},
		{"attach domain", [][]uint64{{uint64(evAttach), wide, 0x1000, 0x1000, 0}}},
		{"attach perm", [][]uint64{{uint64(evAttach), 1, 0x1000, 0x1000, 256}}},
		{"detach domain", [][]uint64{{uint64(evDetach), wide}}},
		{"fence thread", [][]uint64{{uint64(evFence), wide}}},
	} {
		data := rawTrace(tc.events...)
		if n, err := Replay(bytes.NewReader(data), Discard{}); err == nil {
			t.Errorf("%s: Replay accepted it (%d events)", tc.name, n)
		}
		if n, err := decodeWhole(data, Discard{}); err == nil {
			t.Errorf("%s: whole-slice decode accepted it (%d events)", tc.name, n)
		}
	}

	// The widest values that fit still decode.
	const max32 = 1<<32 - 1
	data := rawTrace(
		[]uint64{uint64(evAttach), max32, 0x1000, 0x1000, 255},
		[]uint64{uint64(evSetPerm), max32, max32, 255, max32},
		[]uint64{uint64(evStore), max32, 2, max32},
	)
	var got recording
	if _, err := Replay(bytes.NewReader(data), &got); err != nil {
		t.Fatalf("in-range fields rejected: %v", err)
	}
	want := []interface{}{
		attachEv{max32, memlayout.Region{Base: 0x1000, Size: 0x1000}, 255},
		setPermEv{max32, max32, 255, max32},
		accessEv{max32, 1, max32, true},
	}
	if !reflect.DeepEqual(got.items, want) {
		t.Fatalf("in-range fields decoded to %v, want %v", got.items, want)
	}
}

// TestReplayWindowEdges: Replay decodes from a window it refills from
// its reader, while decodeWhole decodes the whole slice. Over a
// trace longer than three windows, shifted one byte at a time across
// one maximal event, some event straddles a window edge at every offset;
// both must deliver the same events.
func TestReplayWindowEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	body := newEncoder(nil)
	for len(body.buf) < 3*bufferBytes+1000 {
		th := core.ThreadID(rng.Intn(4))
		switch rng.Intn(6) {
		case 0:
			body.instr(th, rng.Uint64()>>rng.Intn(64))
		case 1:
			body.access(th, memlayout.VA(rng.Uint64()), rng.Uint32(), rng.Intn(2) == 0)
		case 2:
			body.fetch(th, memlayout.VA(rng.Uint64()>>rng.Intn(64)))
		case 3:
			body.setPerm(th, core.DomainID(rng.Uint32()), core.Perm(rng.Intn(256)), core.SiteID(rng.Uint32()))
		case 4:
			body.attach(core.DomainID(rng.Uint32()), memlayout.Region{Base: memlayout.VA(rng.Uint64()), Size: rng.Uint64()}, core.PermRW)
		default:
			body.fence(th)
		}
	}
	body.end()

	for shift := 2; shift < 2+maxEventBytes; shift++ {
		// Pad the stream by shift bytes: two-byte fences, and one
		// three-byte fence when shift is odd.
		pad := newEncoder(fileMagic[:])
		for i := 0; i < shift/2-shift%2; i++ {
			pad.fence(0)
		}
		if shift%2 == 1 {
			pad.fence(1 << 7)
		}
		if len(pad.buf) != len(fileMagic)+shift {
			t.Fatalf("padding is %d bytes, want %d", len(pad.buf)-len(fileMagic), shift)
		}
		data := append(pad.buf, body.buf...)

		var windowed, whole recording
		n, err := Replay(bytes.NewReader(data), &windowed)
		if err != nil {
			t.Fatalf("shift %d: Replay: %v", shift, err)
		}
		wholeN, err := decodeWhole(data, &whole)
		if err != nil {
			t.Fatalf("shift %d: whole-slice decode: %v", shift, err)
		}
		if n != wholeN || !reflect.DeepEqual(windowed.items, whole.items) {
			t.Fatalf("shift %d: Replay delivered %d events, the whole-slice decode %d, or they differ", shift, n, wholeN)
		}
	}
}
