package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"domainvirt/internal/bincodec"
)

// SnapshotCodecVersion is the current binary snapshot format version.
// The format is derived from the Snapshot struct and the state structs
// it holds: a change to their fields changes the bytes and must bump it,
// so stale store files miss instead of misdecoding. The codec tests pin
// each scheme's encoding by hash, and fail until it is bumped.
const SnapshotCodecVersion uint32 = 3

// snapMagic opens every encoded snapshot.
const snapMagic = "PMOSNAP\x00"

// Codec errors. A persistent store treats both as a cache miss.
var (
	// ErrSnapshotCorrupt marks a truncated, garbled, or checksum-failing
	// snapshot file.
	ErrSnapshotCorrupt = errors.New("sim: snapshot data corrupt")
	// ErrSnapshotVersion marks an intact snapshot written by a different
	// codec version.
	ErrSnapshotVersion = errors.New("sim: snapshot codec version mismatch")
)

// EncodeSnapshot serializes s into the versioned, checksummed binary
// snapshot format: magic, version, the payload bincodec derives from the
// Snapshot struct, and an FNV-1a-64 checksum. Encoding is deterministic:
// equal snapshots produce identical bytes (maps are written in sorted key
// order), which is what makes content-addressed snapshot stores and
// byte-level cache validation possible. Every snapshot a Machine takes
// encodes; the error is always nil.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	b := make([]byte, 0, 1<<16)
	b = append(b, snapMagic...)
	b = bincodec.U32(b, SnapshotCodecVersion)
	b = bincodec.Append(b, s)
	h := fnv.New64a()
	h.Write(b)
	return bincodec.U64(b, h.Sum64()), nil
}

// DecodeSnapshot parses data written by EncodeSnapshot. It returns
// ErrSnapshotCorrupt for truncation, garbling, or checksum failure and
// ErrSnapshotVersion for an intact payload of a different codec version;
// a store treats either as a miss and rebuilds.
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
	want := bincodec.NewReader(sum).U64()
	if h.Sum64() != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}
	r := bincodec.NewReader(body[len(snapMagic):])
	if v := r.U32(); v != SnapshotCodecVersion {
		return nil, fmt.Errorf("%w: file v%d, codec v%d", ErrSnapshotVersion, v, SnapshotCodecVersion)
	}
	s := &Snapshot{}
	if err := bincodec.Decode(r, s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, r.Len())
	}
	return s, nil
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

// RestoreSafe is Restore for snapshots of untrusted provenance (a disk
// store another process wrote): a geometry or scheme mismatch — which
// Restore reports by panicking, as it indicates a caller bug on the
// in-memory path — comes back as an error, with the machine owed a
// rebuild by the caller (its state may be partially overwritten).
func (m *Machine) RestoreSafe(s *Snapshot) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("sim: restore rejected: %v", p)
		}
	}()
	m.Restore(s)
	return nil
}
