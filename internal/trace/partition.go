package trace

import (
	"errors"
	"fmt"

	"domainvirt/internal/core"
	"domainvirt/internal/memlayout"
)

// Partition is one contiguous slice of a binary trace that can be
// replayed independently of the bytes before it. Offset/Length delimit
// whole events (the end marker is never included); LastVA carries the
// decoder's per-thread VA-delta state at the partition's first byte, so
// delta-encoded accesses decode to the same absolute addresses they
// would in a full sequential replay.
type Partition struct {
	// Offset is the byte offset of the partition's first event, from the
	// start of the trace file (i.e. past the 8-byte header for the first
	// partition).
	Offset int64
	// Length is the number of event bytes in the partition.
	Length int64
	// Events is the number of events encoded in [Offset, Offset+Length).
	Events uint64
	// LastVA is the per-thread previous-VA decoder state at Offset.
	// Replaying the partitions in order with their own LastVA maps is
	// equivalent to one sequential replay of the whole trace.
	LastVA map[core.ThreadID]memlayout.VA
	// Final marks the last partition; the trace's end marker follows it.
	Final bool
}

// SplitTrace scans a complete in-memory trace and cuts it into at most
// maxParts partitions of roughly equal byte size. Cuts are placed only
// at safe boundaries: immediately before a synchronization event
// (SETPERM, ATTACH, DETACH, FENCE) or before an event issued by a
// different thread than its predecessor (a context-switch point in the
// simulator's round-robin placement). A trace with no safe boundary past
// a target point simply yields fewer partitions.
//
// The scan decodes the whole trace, so it rejects exactly what Replay
// rejects, and a successful split guarantees every partition replays
// cleanly.
func SplitTrace(data []byte, maxParts int) ([]Partition, error) {
	if len(data) < len(fileMagic) || [8]byte(data[:8]) != fileMagic {
		return nil, errBadMagic
	}
	if maxParts < 1 {
		maxParts = 1
	}

	d := newDecoder(data, len(fileMagic), nil)
	cur := Partition{Offset: int64(d.pos), LastVA: d.va.snapshot()}
	var parts []Partition

	// Even byte targets over the event body. The body length is only
	// known after the scan, so targets use the file length as a proxy;
	// the end marker's single byte cannot move a cut meaningfully.
	targetStep := int64(len(data)-len(fileMagic)) / int64(maxParts)
	nextTarget := cur.Offset + targetStep

	prevThread := core.ThreadID(0)
	first := true
	for {
		evStart := d.pos
		kind, th := d.peek()
		if kind == evEnd {
			cur.Length = int64(evStart) - cur.Offset
			cur.Final = true
			return append(parts, cur), nil
		}
		sync := kind == evSetPerm || kind == evAttach || kind == evDetach || kind == evFence

		// Cut before this event if we are past the target and the
		// boundary is safe. The decoder has not read the event yet, so
		// its VA state is the state the new partition starts from.
		if len(parts) < maxParts-1 && int64(evStart) >= nextTarget && !first &&
			(sync || th != prevThread) {
			cur.Length = int64(evStart) - cur.Offset
			parts = append(parts, cur)
			cur = Partition{Offset: int64(evStart), LastVA: d.va.snapshot()}
			nextTarget = int64(evStart) + targetStep
		}

		if d.next(Discard{}) == 0 {
			return nil, d.err
		}
		cur.Events++
		if !sync {
			prevThread = th
		}
		first = false
	}
}

// ReplayPartition replays exactly one partition of data into sink,
// seeding the VA-delta decoder from p.LastVA. It validates the byte
// range strictly: decoding must consume exactly p.Length bytes and yield
// exactly p.Events events, so a partition descriptor that does not line
// up with event boundaries (truncated mid-event, offset inside an
// event's encoding, stale after the trace changed) fails loudly instead
// of replaying garbage.
func ReplayPartition(data []byte, p Partition, sink Sink) (uint64, error) {
	if p.Offset < int64(len(fileMagic)) || p.Length < 0 || p.Offset+p.Length > int64(len(data)) {
		return 0, fmt.Errorf("trace: partition [%d,+%d) out of range", p.Offset, p.Length)
	}
	d := newDecoder(data[:p.Offset+p.Length], int(p.Offset), p.LastVA)
	var n uint64
	for d.pos < len(d.data) {
		switch d.next(sink) {
		case 0:
			return n, d.err
		case evEnd:
			return n, errors.New("trace: end marker inside partition")
		}
		n++
	}
	if n != p.Events {
		return n, fmt.Errorf("trace: partition decoded %d events, descriptor says %d", n, p.Events)
	}
	return n, nil
}
