package domainvirt_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"domainvirt/internal/core"
	"domainvirt/internal/memlayout"
	"domainvirt/internal/workload"
)

// streamHash is a Sink that hashes every call it receives, field by
// field, and permits every access, as the fault-free cells that stores
// serve do.
type streamHash struct {
	h   hash.Hash
	buf []byte
}

func (s *streamHash) put(kind byte, fields ...uint64) {
	s.buf = append(s.buf[:0], kind)
	for _, f := range fields {
		s.buf = binary.AppendUvarint(s.buf, f)
	}
	s.h.Write(s.buf)
}

func (s *streamHash) Instr(th core.ThreadID, n uint64) { s.put('I', uint64(th), n) }

func (s *streamHash) Access(th core.ThreadID, va memlayout.VA, size uint32, write bool) bool {
	kind := byte('L')
	if write {
		kind = 'S'
	}
	s.put(kind, uint64(th), uint64(va), uint64(size))
	return true
}

func (s *streamHash) Fetch(th core.ThreadID, va memlayout.VA) bool {
	s.put('F', uint64(th), uint64(va))
	return true
}

func (s *streamHash) SetPerm(th core.ThreadID, d core.DomainID, p core.Perm, site core.SiteID) {
	s.put('P', uint64(th), uint64(d), uint64(p), uint64(site))
}

func (s *streamHash) Attach(d core.DomainID, r memlayout.Region, perm core.Perm) error {
	s.put('A', uint64(d), uint64(r.Base), r.Size, uint64(perm))
	return nil
}

func (s *streamHash) Detach(d core.DomainID) { s.put('D', uint64(d)) }

func (s *streamHash) Fence(th core.ThreadID) { s.put('N', uint64(th)) }

// streamGolden pins the sha256 of each registered workload's Sink calls
// over Setup and Run at streamParams.
var streamGolden = map[string]string{
	"avl":     "78432a853da5f400300fe9489852d2815a139ee43819423f3e4b37bc762e841d",
	"bt":      "2c06320593839669806d8eb9b5ae067d35b0f20eed040e9f3c0f6f61717ad1df",
	"ctree":   "f8b8349fefe5ccd0c7216ebef3dfeb1bbe7e4a1775eadd1541fe9d228c4895c9",
	"echo":    "bd52e3776e0412fda8125955c268638fb974e279ab35e751e2d3bcebe3435a70",
	"hashmap": "df5f2a4ee181065ea16af81490a23dd3170791591510b9ce11d96b517efc2420",
	"ll":      "828880f5dad29c2aaca387e63da4e670ce6654f378ddbbd3c8a43a8963605dce",
	"rbt":     "c44e5e0b813d2f188318c62b3e7d94891ff6aed8a87941150732ad8f0ad4dc4d",
	"redis":   "81f777b16664367468f6a4ac0a7f85727e4afbef8c1e9f5e36c03388f31d478e",
	"server":  "35c2f241c18e2934afc7fdb3913bf7c7122e5e49b48c1a5d4280ba204e9d1709",
	"ss":      "02ee05a062b84e88c580d14789675f1b1c8700d785b08c60dabe1d6e47312987",
	"tpcc":    "d2980d158d845a47df82c50d9f561e51d381bdadc94ccce00bd6657dd2756f5b",
	"ycsb":    "a1ce2d1d8a788cf258e9cf91f83dce6d9c2d00590cebe12a1b247a8e2481d1aa",
}

var streamParams = workload.Params{NumPMOs: 4, InitialElems: 32, Ops: 50, Seed: 42}

// TestStreamGolden pins the event stream of every registered workload.
// Store keys cannot see a workload's code, only workload.StreamVersion,
// so a stream that moves without a version bump would let a primed
// store serve checkpoints and traces of the old code. The hash covers
// the Sink calls, not trace bytes, so a trace-format change alone does
// not trip it.
func TestStreamGolden(t *testing.T) {
	names := workload.Names()
	if len(names) != len(streamGolden) {
		t.Errorf("%d workloads registered, %d pinned", len(names), len(streamGolden))
	}
	for _, name := range names {
		w, err := workload.New(name)
		if err != nil {
			t.Fatal(err)
		}
		sink := &streamHash{h: sha256.New()}
		env := workload.NewEnv(sink, streamParams)
		if err := w.Setup(env); err != nil {
			t.Fatalf("%s setup: %v", name, err)
		}
		sink.put('|')
		if err := w.Run(env); err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
		if got := hex.EncodeToString(sink.h.Sum(nil)); got != streamGolden[name] {
			t.Errorf("%s event stream changed: sha256 %s, pinned %q. Bump workload.StreamVersion "+
				"(now %d) so stored checkpoints and traces of the old stream miss, then re-pin.",
				name, got, streamGolden[name], workload.StreamVersion)
		}
	}
}
