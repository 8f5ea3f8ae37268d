package sim_test

import (
	"testing"

	"domainvirt/internal/cache"
	"domainvirt/internal/sim"
	"domainvirt/internal/tlb"
)

// fuzzConfig is a two-core machine with 8- and 16-entry TLBs and 1 KiB
// and 4 KiB caches. Its encoded snapshots are a few kilobytes where a
// DefaultConfig machine's are hundreds, so one execution takes well under
// a millisecond.
func fuzzConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cores = 2
	cfg.L1TLB = tlb.Config{Entries: 8, Ways: 4}
	cfg.L2TLB = tlb.Config{Entries: 16, Ways: 4}
	cfg.L1D = cache.Config{SizeBytes: 1 << 10, Ways: 4, Latency: 1}
	cfg.L2 = cache.Config{SizeBytes: 4 << 10, Ways: 8, Latency: 8}
	return cfg
}

// FuzzDecodeSnapshot throws arbitrary bytes at the snapshot decoder, the
// reader of files a disk store shares between processes and the place
// the TLBs' block counts and the page table's presence bitmaps are
// rebuilt from disk bytes. Each input is resealed with the current
// version and a valid checksum first, so mutations reach the field
// decoders instead of stopping at the checksum. Decoding must never
// panic, and a decoded snapshot must restore, or be rejected with an
// error, on a machine of each scheme.
func FuzzDecodeSnapshot(f *testing.F) {
	cfg := fuzzConfig()
	for _, s := range sim.AllSchemes {
		// Attaches, accesses, faults and, past the 15 usable keys,
		// SetPerm calls that evict keys.
		m := sim.NewMachine(cfg, s)
		snapDrivePrefix(f, m, snapDomains(s))
		data, err := sim.EncodeSnapshot(m.Snapshot())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	const minSnapshot = 8 + 4 + 8 // magic, version, checksum
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= minSnapshot {
			data = sim.ResealSnapshotVersion(data, sim.SnapshotCodecVersion)
		}
		snap, err := sim.DecodeSnapshot(data)
		if err != nil {
			return
		}
		for _, s := range sim.AllSchemes {
			// A rejection is a correct answer to a foreign snapshot.
			_ = sim.NewMachine(cfg, s).RestoreSafe(snap)
		}
	})
}
