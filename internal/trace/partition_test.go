package trace

import (
	"bytes"
	"reflect"
	"testing"

	"domainvirt/internal/core"
	"domainvirt/internal/memlayout"
)

// buildPartitionTrace writes a trace with several threads, VA-delta
// locality, and interleaved sync events — enough safe boundaries that a
// multi-way split is always possible.
func buildPartitionTrace(tb testing.TB, rounds int) []byte {
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

// TestSplitTraceEquivalence is the partitioner's referee: replaying the
// partitions in order must deliver exactly the event stream of a full
// sequential replay — same counts, and (via an event-recording sink)
// the same absolute VAs despite the per-thread delta encoding.
func TestSplitTraceEquivalence(t *testing.T) {
	data := buildPartitionTrace(t, 500)
	var want Counter
	wantN, err := Replay(bytes.NewReader(data), &want)
	if err != nil {
		t.Fatal(err)
	}

	for _, parts := range []int{1, 2, 4, 7, 16} {
		ps, err := SplitTrace(data, parts)
		if err != nil {
			t.Fatalf("SplitTrace(%d): %v", parts, err)
		}
		if len(ps) > parts {
			t.Fatalf("SplitTrace(%d) returned %d partitions", parts, len(ps))
		}

		// Partitions tile the event body exactly.
		off := int64(len(fileMagic))
		var total uint64
		for i, p := range ps {
			if p.Offset != off {
				t.Fatalf("parts=%d partition %d offset %d, want %d", parts, i, p.Offset, off)
			}
			off += p.Length
			total += p.Events
			if p.Final != (i == len(ps)-1) {
				t.Fatalf("parts=%d partition %d Final=%v", parts, i, p.Final)
			}
		}
		if off != int64(len(data)-1) { // end marker byte excluded
			t.Fatalf("parts=%d partitions end at %d, trace body ends at %d", parts, off, len(data)-1)
		}
		if total != wantN {
			t.Fatalf("parts=%d partitions hold %d events, trace has %d", parts, total, wantN)
		}

		// Sequential replay of the partitions reproduces the stream. A
		// recording Writer round-trips it so VA decoding errors (a wrong
		// LastVA seed) corrupt the bytes and fail the comparison.
		var rec bytes.Buffer
		rw, err := NewWriter(&rec)
		if err != nil {
			t.Fatal(err)
		}
		var got Counter
		sink := NewTee(&got, rw)
		for i, p := range ps {
			n, err := ReplayPartition(data, p, sink)
			if err != nil {
				t.Fatalf("parts=%d ReplayPartition %d: %v", parts, i, err)
			}
			if n != p.Events {
				t.Fatalf("parts=%d partition %d replayed %d events, want %d", parts, i, n, p.Events)
			}
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("parts=%d partitioned counters differ: got %+v want %+v", parts, got, want)
		}
		if !bytes.Equal(rec.Bytes(), data) {
			t.Errorf("parts=%d re-recorded trace differs from original", parts)
		}
	}
}

// TestSplitTraceBoundariesAreSafe verifies each non-first partition
// starts at a sync event or a thread switch, per the split-point
// contract documented in ARCHITECTURE.md.
func TestSplitTraceBoundariesAreSafe(t *testing.T) {
	data := buildPartitionTrace(t, 300)
	ps, err := SplitTrace(data, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) < 2 {
		t.Fatalf("expected a multi-way split, got %d partitions", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		kind := data[ps[i].Offset]
		if kind < evInstr || kind > evEnd {
			t.Fatalf("partition %d starts at non-event byte %#x", i, kind)
		}
	}
}

// TestReplayPartitionTruncated covers a chunk cut off mid-partition: the
// strict length/event accounting must fail, not silently replay a
// prefix.
func TestReplayPartitionTruncated(t *testing.T) {
	data := buildPartitionTrace(t, 200)
	ps, err := SplitTrace(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := ps[1]

	// Truncate the byte range mid-event.
	short := p
	short.Length -= 3
	if _, err := ReplayPartition(data, short, Discard{}); err == nil {
		t.Error("truncated partition replayed without error")
	}

	// Truncate the backing data under an intact descriptor.
	cut := data[:p.Offset+p.Length-5]
	if _, err := ReplayPartition(cut, p, Discard{}); err == nil {
		t.Error("partition over truncated data replayed without error")
	}
}

// TestReplayPartitionMisaligned covers a partition point placed inside
// an event's encoding (e.g. splitting a batch of events at a byte count
// rather than an event boundary): decode must never panic, and the
// strict length/event accounting must reject the typical misalignment.
// (A rejection on every byte shift cannot be promised — varint bodies
// are dense enough that a shifted window can parse coincidentally —
// which is exactly why the replay layer's A/B conformance gate exists.)
func TestReplayPartitionMisaligned(t *testing.T) {
	data := buildPartitionTrace(t, 200)
	ps, err := SplitTrace(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := ps[1]
	rejected := 0
	for _, shift := range []int64{1, 2, 3} {
		bad := p
		bad.Offset += shift
		bad.Length -= shift
		if n, err := ReplayPartition(data, bad, Discard{}); err != nil || n != p.Events {
			rejected++
		}
	}
	if rejected == 0 {
		t.Error("no misaligned offset was rejected")
	}
}

// TestReplayPartitionEmpty: a zero-length partition replays cleanly as
// zero events.
func TestReplayPartitionEmpty(t *testing.T) {
	data := buildPartitionTrace(t, 50)
	empty := Partition{Offset: int64(len(fileMagic)), Length: 0, Events: 0}
	n, err := ReplayPartition(data, empty, Discard{})
	if err != nil || n != 0 {
		t.Errorf("empty partition: n=%d err=%v", n, err)
	}
}

// TestSplitTraceTruncated: the structural scan must reject a trace with
// no end marker with the same error as the sequential reader.
func TestSplitTraceTruncated(t *testing.T) {
	data := buildPartitionTrace(t, 50)
	if _, err := SplitTrace(data[:len(data)-1], 4); err == nil {
		t.Error("truncated trace split without error")
	}
	if _, err := SplitTrace([]byte("PMOXXX\x00\x01rest"), 4); err == nil {
		t.Error("bad magic split without error")
	}
}

// FuzzSplitTrace hardens the partitioner and holds Replay and
// SplitTrace, which run one decoder, to each other: on arbitrary bytes,
// SplitTrace must accept exactly the inputs Replay accepts, and on
// success the partitions must replay to Replay's events, absolute VAs
// included, so a wrong VA hand-off at a cut shows.
func FuzzSplitTrace(f *testing.F) {
	f.Add(buildPartitionTrace(f, 40), 4)
	f.Add(buildPartitionTrace(f, 3), 16)
	f.Add([]byte{}, 2)
	f.Add([]byte("PMOTRC\x00\x01"), 3)

	f.Fuzz(func(t *testing.T, data []byte, parts int) {
		if parts > 64 {
			parts = 64
		}
		var seq recording
		seqN, seqErr := Replay(bytes.NewReader(data), &seq)
		ps, err := SplitTrace(data, parts)
		if (err == nil) != (seqErr == nil) {
			t.Fatalf("SplitTrace error %v, Replay error %v", err, seqErr)
		}
		if err != nil {
			return
		}
		var par recording
		var parN uint64
		for i, p := range ps {
			n, err := ReplayPartition(data, p, &par)
			if err != nil {
				t.Fatalf("partition %d: %v", i, err)
			}
			parN += n
		}
		if parN != seqN || !reflect.DeepEqual(par.items, seq.items) {
			t.Fatalf("partitioned replay diverged: %d events vs %d sequential", parN, seqN)
		}
	})
}
