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

// streamCases lists every Params TestStreamGolden pins: streamParams,
// then Params that take the branches it does not, per-pool placement
// and two threads under each placement. The whisper workloads ignore
// Placement, so their per-pool hashes equal their scatter ones.
var streamCases = []struct {
	p      workload.Params
	golden map[string]string
}{
	{streamParams, streamGolden},
	{workload.Params{NumPMOs: 4, InitialElems: 32, Ops: 50, Seed: 42, Placement: "perpool"}, map[string]string{
		"avl":     "e410378644172c20da9a7cffabcbf9cd1aa3510ecc5e0baa78006be292f185f6",
		"bt":      "829a56186210bce4461d453e86133dff326d9530daed2828ace227006f64b21e",
		"ctree":   "f8b8349fefe5ccd0c7216ebef3dfeb1bbe7e4a1775eadd1541fe9d228c4895c9",
		"echo":    "bd52e3776e0412fda8125955c268638fb974e279ab35e751e2d3bcebe3435a70",
		"hashmap": "df5f2a4ee181065ea16af81490a23dd3170791591510b9ce11d96b517efc2420",
		"ll":      "751208bf800d5b461191ed1f5334efdc2b6ae92eabe7ce43a668cbeae05a059c",
		"rbt":     "d8be98eb74b6aae3c9f58919c21355960a7093eda56e2c93939c1d91848b8eaf",
		"redis":   "81f777b16664367468f6a4ac0a7f85727e4afbef8c1e9f5e36c03388f31d478e",
		"server":  "35c2f241c18e2934afc7fdb3913bf7c7122e5e49b48c1a5d4280ba204e9d1709",
		"ss":      "387d355cce25c7d8b16fa4d2003da48e1366a17b5c4e847720c6902c38e67d29",
		"tpcc":    "d2980d158d845a47df82c50d9f561e51d381bdadc94ccce00bd6657dd2756f5b",
		"ycsb":    "a1ce2d1d8a788cf258e9cf91f83dce6d9c2d00590cebe12a1b247a8e2481d1aa",
	}},
	{workload.Params{NumPMOs: 6, InitialElems: 24, Ops: 80, Seed: 7, Threads: 2}, map[string]string{
		"avl":     "7272ab084423f567cbe85494f9c972757f258114fcce6ccf7da50f2c906315ba",
		"bt":      "dd7d8c92288089d17ed946221c9ecb7ba0dd4f751693fa5b42be32b3ba3e5787",
		"ctree":   "5f61fb561a1d03b90de3b66268d46f6d9536868c479a8c2e69104750b749945b",
		"echo":    "08d675b3e65a327bb43a07a2d36e124b72cfa260f09efc9a68d7e56f2964fd93",
		"hashmap": "260713bb68e9adf60ae931212e35a924f0e3a064c15af35325c8f40c5a86cf01",
		"ll":      "f59c59008fe8b5493529a0d80ede2cfffce4a5396a17326d40f73fcc7c579acd",
		"rbt":     "c66d2a5ead9b54c376a3aafd038cbf755f21904f35c61041b377b571fe4e0952",
		"redis":   "b89fb94693923af3997ffffa33296b91c234802d284ad31f728abf396cf7e7f3",
		"server":  "a18f643e0651b9f29da6a31a3fcec99b367ad61c03a0692534b074244e187ef3",
		"ss":      "b87123da7d47c5cfcfd7b6e906661517e24d96b30936be82cf0a44d9476781e5",
		"tpcc":    "1c29f23446842acce2dcdbbe5fc61cdaea22fb65a58f21d3dc16c9391977150e",
		"ycsb":    "1a59c89fdf81cf68d7265c4ff5850c636804157127bf6344b45468609401f8cf",
	}},
	{workload.Params{NumPMOs: 6, InitialElems: 24, Ops: 80, Seed: 7, Threads: 2, Placement: "perpool"}, map[string]string{
		"avl":     "7971dcd8b15ec50268806e8aec7b489434dd7170f80abb261a3846f94cd815f6",
		"bt":      "459959a1620253e70842d1c3039759023a0b3076dd65b1a80d069592157a0e1b",
		"ctree":   "5f61fb561a1d03b90de3b66268d46f6d9536868c479a8c2e69104750b749945b",
		"echo":    "08d675b3e65a327bb43a07a2d36e124b72cfa260f09efc9a68d7e56f2964fd93",
		"hashmap": "260713bb68e9adf60ae931212e35a924f0e3a064c15af35325c8f40c5a86cf01",
		"ll":      "dea9efe854aff024aea332eba2bd218906ed144914aaa1601b72c8a2c881b262",
		"rbt":     "597450081b0f65d70022ff5ab1b98cfc181f3aa548c1fe14907be27d3ed22a6b",
		"redis":   "b89fb94693923af3997ffffa33296b91c234802d284ad31f728abf396cf7e7f3",
		"server":  "a18f643e0651b9f29da6a31a3fcec99b367ad61c03a0692534b074244e187ef3",
		"ss":      "6f9c75b263597b4c0aec40f4ee0388491c14112f5a36cd71c029d75b00594dc9",
		"tpcc":    "1c29f23446842acce2dcdbbe5fc61cdaea22fb65a58f21d3dc16c9391977150e",
		"ycsb":    "1a59c89fdf81cf68d7265c4ff5850c636804157127bf6344b45468609401f8cf",
	}},
}

// TestStreamGolden pins the event stream of every registered workload.
// Store keys cannot see a workload's code, only workload.StreamVersion,
// so a stream that moves without a version bump would let a primed
// store serve checkpoints and traces of the old code. The hash covers
// the Sink calls, not trace bytes, so a trace-format change alone does
// not trip it.
func TestStreamGolden(t *testing.T) {
	names := workload.Names()
	for _, c := range streamCases {
		if len(names) != len(c.golden) {
			t.Errorf("%d workloads registered, %d pinned at %+v", len(names), len(c.golden), c.p)
		}
		for _, name := range names {
			w, err := workload.New(name)
			if err != nil {
				t.Fatal(err)
			}
			sink := &streamHash{h: sha256.New()}
			env := workload.NewEnv(sink, c.p)
			if err := w.Setup(env); err != nil {
				t.Fatalf("%s setup: %v", name, err)
			}
			sink.put('|')
			if err := w.Run(env); err != nil {
				t.Fatalf("%s run: %v", name, err)
			}
			if got := hex.EncodeToString(sink.h.Sum(nil)); got != c.golden[name] {
				t.Errorf("%s event stream at %+v changed: sha256 %s, pinned %q. Bump workload.StreamVersion "+
					"(now %d) so stored checkpoints and traces of the old stream miss, then re-pin.",
					name, c.p, got, c.golden[name], workload.StreamVersion)
			}
		}
	}
}
