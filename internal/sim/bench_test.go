package sim_test

import (
	"testing"

	"domainvirt/internal/core"
	"domainvirt/internal/memlayout"
	"domainvirt/internal/sim"
)

// benchRegion returns the attach region for benchmark domain d (2 MB
// aligned, one 2 MB slot each, far from the code/heap ranges).
func benchRegion(d core.DomainID) memlayout.Region {
	base := memlayout.VA(0x4000_0000_0000 + uint64(d)<<21)
	return memlayout.Region{Base: base, Size: 2 << 20}
}

// benchMachine builds a single-core machine with ndomains attached
// domains, grants thread 1 RW on all of them, and warms the page working
// set so the measured loop is steady state (TLB hits, no demand paging).
func benchMachine(tb testing.TB, scheme sim.Scheme, ndomains, pages int) *sim.Machine {
	tb.Helper()
	cfg := sim.DefaultConfig()
	m := sim.NewMachine(cfg, scheme)
	for d := core.DomainID(1); d <= core.DomainID(ndomains); d++ {
		if err := m.Attach(d, benchRegion(d), core.PermRW); err != nil {
			tb.Fatal(err)
		}
		m.SetPerm(1, d, core.PermRW, 0)
	}
	for d := core.DomainID(1); d <= core.DomainID(ndomains); d++ {
		r := benchRegion(d)
		for p := 0; p < pages; p++ {
			if !m.Access(1, r.Base+memlayout.VA(p*memlayout.PageSize), 8, false) {
				tb.Fatalf("warmup access denied: scheme=%s d=%d page=%d", scheme, d, p)
			}
		}
	}
	m.ResetStats()
	return m
}

// benchSchemes is the scheme set for the hot-path benchmarks: the
// baseline floor plus the three schemes that do per-access work.
var benchSchemes = []sim.Scheme{
	sim.SchemeBaseline,
	sim.SchemeMPK,
	sim.SchemeLibmpk,
	sim.SchemeMPKVirt,
	sim.SchemeDomainVirt,
}

// BenchmarkAccessSamePage is the L0 fast-path regime: repeated
// same-page, single-line accesses, the common case of any loop over a
// PMO-resident structure. This is the benchmark the BENCH_sim.json
// trajectory tracks as access_same_page.
func BenchmarkAccessSamePage(b *testing.B) {
	for _, s := range benchSchemes {
		b.Run(string(s), func(b *testing.B) {
			m := benchMachine(b, s, 4, 8)
			va := benchRegion(1).Base
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Access(1, va+memlayout.VA((i&7)*64), 8, i&1 == 0)
			}
		})
	}
}

// BenchmarkAccessPageStride walks a working set larger than one page but
// well inside the L1 TLB: every access changes pages, so the L0 slot
// misses and the TLB-hit path is measured.
func BenchmarkAccessPageStride(b *testing.B) {
	for _, s := range benchSchemes {
		b.Run(string(s), func(b *testing.B) {
			m := benchMachine(b, s, 4, 8)
			r := benchRegion(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				va := r.Base + memlayout.VA((i&7)*memlayout.PageSize)
				m.Access(1, va, 8, false)
			}
		})
	}
}

// BenchmarkReplayTrace is the end-to-end trace-replay regime: a mixed
// stream of instructions, loads, stores, and SETPERM windows across
// several domains — the shape every experiment grid and conformance
// replay drives. BENCH_sim.json tracks it as replay_trace.
func BenchmarkReplayTrace(b *testing.B) {
	for _, s := range benchSchemes {
		b.Run(string(s), func(b *testing.B) {
			const nd = 4
			m := benchMachine(b, s, nd, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := core.DomainID(1 + i%nd)
				r := benchRegion(d)
				m.Instr(1, 20)
				if i%64 == 0 {
					m.SetPerm(1, d, core.PermRW, 0)
				}
				va := r.Base + memlayout.VA((i&7)*memlayout.PageSize) + memlayout.VA((i&31)*64)
				m.Access(1, va, 8, false)
				m.Access(1, va, 8, true)
				m.Access(1, va+8, 8, false)
			}
		})
	}
}

// BenchmarkAccessStraddle measures the cache-line-straddling split path.
func BenchmarkAccessStraddle(b *testing.B) {
	m := benchMachine(b, sim.SchemeDomainVirt, 1, 8)
	va := benchRegion(1).Base + 60 // 8-byte access crosses the 64 B line
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Access(1, va, 8, false)
	}
}

// BenchmarkFetch measures the instruction-fetch path in steady state.
func BenchmarkFetch(b *testing.B) {
	m := benchMachine(b, sim.SchemeDomainVirt, 1, 8)
	va := benchRegion(1).Base
	for i := 0; i < 8; i++ {
		m.Fetch(1, va+memlayout.VA(i*memlayout.PageSize))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Fetch(1, va+memlayout.VA((i&7)*memlayout.PageSize))
	}
}

// benchSnapshot builds a machine with warmed multi-domain state and
// returns its snapshot — the codec benchmarks measure the persistent
// snapshot store's serialization hot path on a realistic capture.
func benchSnapshot(tb testing.TB) *sim.Snapshot {
	m := benchMachine(tb, sim.SchemeDomainVirt, 8, 32)
	for d := core.DomainID(1); d <= 8; d++ {
		r := benchRegion(d)
		for p := 0; p < 32; p++ {
			va := r.Base + memlayout.VA(p*memlayout.PageSize)
			m.Access(1, va, 8, true)
			m.Instr(1, 50)
		}
		m.SetPerm(1, d, core.PermR, 0)
		m.SetPerm(1, d, core.PermRW, 0)
	}
	return m.Snapshot()
}

// BenchmarkSnapshotEncode measures EncodeSnapshot, which returns the
// bytes a snapshot was encoded to when it was taken.
func BenchmarkSnapshotEncode(b *testing.B) {
	snap := benchSnapshot(b)
	data, err := sim.EncodeSnapshot(snap)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.EncodeSnapshot(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotDecode measures DecodeSnapshot's check of the stored
// bytes' envelope (magic, checksum, version); the payload is decoded by
// the restore.
func BenchmarkSnapshotDecode(b *testing.B) {
	data, err := sim.EncodeSnapshot(benchSnapshot(b))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.DecodeSnapshot(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointKeep measures what a snapshot cache runs to keep a
// warmed cell's checkpoint: the capture of the machine, which encodes it.
func BenchmarkCheckpointKeep(b *testing.B) {
	for _, s := range []sim.Scheme{sim.SchemeMPKVirt, sim.SchemeDomainVirt} {
		b.Run(string(s), func(b *testing.B) {
			m := benchMachine(b, s, 8, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.EncodeSnapshot(m.Snapshot()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpointLoad measures what a snapshot cache runs to serve a
// stored checkpoint: a fresh machine of the cell's geometry, the check
// of the stored bytes and the restore.
func BenchmarkCheckpointLoad(b *testing.B) {
	for _, s := range []sim.Scheme{sim.SchemeMPKVirt, sim.SchemeDomainVirt} {
		b.Run(string(s), func(b *testing.B) {
			data, err := sim.EncodeSnapshot(benchMachine(b, s, 8, 16).Snapshot())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := sim.NewMachine(sim.DefaultConfig(), s)
				snap, err := sim.DecodeSnapshot(data)
				if err == nil {
					err = m.RestoreSafe(snap)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
