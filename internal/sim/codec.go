package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"domainvirt/internal/bincodec"
)

// SnapshotCodecVersion is the current binary snapshot format version.
// The format is derived from the state struct a Snapshot encodes and the
// component state structs it holds: a change to their fields changes the
// bytes and must bump it, so stale store files miss instead of
// misdecoding. The codec tests pin each scheme's encoding by hash, and
// fail until it is bumped.
const SnapshotCodecVersion uint32 = 3

// snapMagic opens every encoded snapshot.
const snapMagic = "PMOSNAP\x00"

// Codec errors. A persistent store treats both as a cache miss.
var (
	// ErrSnapshotCorrupt marks a truncated, garbled, or checksum-failing
	// snapshot file, and a sealed payload that does not decode.
	ErrSnapshotCorrupt = errors.New("sim: snapshot data corrupt")
	// ErrSnapshotVersion marks an intact snapshot written by a different
	// codec version.
	ErrSnapshotVersion = errors.New("sim: snapshot codec version mismatch")
)

// encode serializes st into the versioned, checksummed binary snapshot
// format: magic, version, the payload bincodec derives from the state
// struct, and an FNV-1a-64 checksum. Encoding is deterministic: equal
// states produce identical bytes (maps are written in sorted key order),
// which is what makes content-addressed snapshot stores and byte-level
// cache validation possible.
func encode(st *state) []byte {
	b := make([]byte, 0, 1<<16)
	b = append(b, snapMagic...)
	b = bincodec.U32(b, SnapshotCodecVersion)
	b = bincodec.Append(b, st)
	h := fnv.New64a()
	h.Write(b)
	return bincodec.U64(b, h.Sum64())
}

// decode reads the payload r holds into st, returning ErrSnapshotCorrupt
// if it does not decode or leaves bytes over.
func decode(r *bincodec.Reader, st *state) error {
	if err := bincodec.Decode(r, st); err != nil {
		return fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, r.Len())
	}
	return nil
}

// payload returns a Reader over the snapshot's payload, between the
// version and the checksum.
func (s *Snapshot) payload() *bincodec.Reader {
	return bincodec.NewReader(s.data[len(snapMagic)+4 : len(s.data)-8])
}

// EncodeSnapshot returns the snapshot's bytes, which the caller must not
// modify. Every snapshot is encoded when it is taken or decoded; the
// error is always nil.
func EncodeSnapshot(s *Snapshot) ([]byte, error) { return s.data, nil }

// DecodeSnapshot checks the envelope of data written by EncodeSnapshot —
// magic, checksum and version — and returns the snapshot, which aliases
// data: the caller must not modify it afterwards. It returns
// ErrSnapshotCorrupt for truncation, garbling, or checksum failure and
// ErrSnapshotVersion for an intact file of a different codec version; a
// store treats either as a miss and rebuilds. The payload is decoded by
// each restore, which reports a malformed one.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic)+4+8 {
		return nil, fmt.Errorf("%w: %d bytes", ErrSnapshotCorrupt, len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	body, sum := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != binary.LittleEndian.Uint64(sum) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[len(snapMagic):]); v != SnapshotCodecVersion {
		return nil, fmt.Errorf("%w: file v%d, codec v%d", ErrSnapshotVersion, v, SnapshotCodecVersion)
	}
	return &Snapshot{data: data}, nil
}

// ResealSnapshotVersion returns a copy of data with the version field
// replaced and the trailing checksum recomputed — the shape of a file an
// intact future writer would produce. It exists so version-rejection
// coverage (here and in the store's hostility tests) exercises the
// version check rather than the checksum.
func ResealSnapshotVersion(data []byte, v uint32) []byte {
	mut := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(mut[len(snapMagic):], v)
	h := fnv.New64a()
	h.Write(mut[: len(mut)-8 : len(mut)-8])
	binary.LittleEndian.PutUint64(mut[len(mut)-8:], h.Sum64())
	return mut
}
