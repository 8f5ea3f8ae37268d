package trace

import (
	"bytes"
	"reflect"
	"testing"

	"domainvirt/internal/core"
	"domainvirt/internal/memlayout"
)

// FuzzReplay hardens the binary trace reader against corrupt input: on
// arbitrary bytes Replay must not panic, and an accepted trace's events,
// re-encoded through a Writer, must replay to the same events again.
func FuzzReplay(f *testing.F) {
	// Seed with a small valid trace.
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	emitSeed(w)
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("PMOTRC\x00\x01"))
	f.Add(threadedTrace(f, 40))
	f.Add(threadedTrace(f, 3))

	f.Fuzz(func(t *testing.T, data []byte) {
		var got recording
		if _, err := Replay(bytes.NewReader(data), &got); err != nil {
			return
		}

		var re bytes.Buffer
		rw, err := NewWriter(&re)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Replay(bytes.NewReader(data), rw); err != nil {
			t.Fatalf("replay into a Writer: %v", err)
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
		var again recording
		if _, err := Replay(&re, &again); err != nil {
			t.Fatalf("re-encoded trace: %v", err)
		}
		if !reflect.DeepEqual(again.items, got.items) {
			t.Fatalf("re-encoded trace replays to %d events, want the %d it was written from", len(again.items), len(got.items))
		}
	})
}

// FuzzWindowedDecode holds Replay's windowed decode to a whole-slice
// decode: on arbitrary bytes Replay must accept exactly what decodeWhole
// accepts and deliver the same events, absolute VAs included, so a VA
// delta or a field lost at a window refill shows.
func FuzzWindowedDecode(f *testing.F) {
	f.Add(threadedTrace(f, 40))
	f.Add(threadedTrace(f, 3))
	f.Add([]byte{})
	f.Add([]byte("PMOTRC\x00\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var got, whole recording
		n, err := Replay(bytes.NewReader(data), &got)
		wholeN, wholeErr := decodeWhole(data, &whole)
		if (err == nil) != (wholeErr == nil) {
			t.Fatalf("Replay error %v, whole-slice decode error %v", err, wholeErr)
		}
		if n != wholeN || !reflect.DeepEqual(got.items, whole.items) {
			t.Fatalf("Replay delivered %d events, the whole-slice decode %d, or they differ", n, wholeN)
		}
	})
}

func emitSeed(s Sink) {
	s.Instr(1, 100)
	s.Access(1, 0x1000, 8, true)
	s.SetPerm(1, 2, 0, 3)
	s.Fence(1)
}

// threadedTrace writes a trace whose accesses interleave three threads
// over two domains, with permission changes, fences and fetches mixed
// in, so the per-thread VA-delta state changes hands often.
func threadedTrace(tb testing.TB, rounds int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.Attach(1, memlayout.Region{Base: 0x1000_0000, Size: 1 << 21}, core.PermRW); err != nil {
		tb.Fatal(err)
	}
	if err := w.Attach(2, memlayout.Region{Base: 0x2000_0000, Size: 1 << 21}, core.PermRW); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		th := core.ThreadID(1 + i%3)
		w.Instr(th, uint64(3+i%5))
		base := memlayout.VA(0x1000_0000 + (i%2)*0x1000_0000)
		w.Access(th, base+memlayout.VA(i%64)*64, 8, i%3 == 0)
		w.Access(th, base+memlayout.VA(i%64)*64+8, 8, false)
		if i%7 == 0 {
			w.SetPerm(th, core.DomainID(1+i%2), core.PermR, core.SiteID(i%4))
		}
		if i%11 == 0 {
			w.Fence(th)
		}
		if i%13 == 0 {
			w.Fetch(th, base+memlayout.VA(i)*4)
		}
	}
	w.Detach(2)
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}
