package sim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"domainvirt/internal/sim"
)

// codecSnapshot builds a nontrivially-warmed snapshot for scheme s.
func codecSnapshot(tb testing.TB, s sim.Scheme) (*sim.Snapshot, sim.Config, int) {
	tb.Helper()
	nd := snapDomains(s)
	cfg := snapConfig()
	m := sim.NewMachine(cfg, s)
	snapDrivePrefix(tb, m, nd)
	m.ResetStats()
	return m.Snapshot(), cfg, nd
}

// TestSnapshotCodecRoundTrip is the referee for the persistent store:
// for every scheme, a machine restored from the decoded bytes must
// continue bit-identically to a machine restored from the live snapshot.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	for _, s := range sim.AllSchemes {
		t.Run(string(s), func(t *testing.T) {
			snap, cfg, nd := codecSnapshot(t, s)

			ref := sim.NewMachine(cfg, s)
			ref.Restore(snap)
			snapDriveSuffix(ref, nd)
			want := ref.Result()

			data, err := sim.EncodeSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := sim.DecodeSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			if decoded.Scheme() != string(s) {
				t.Fatalf("decoded scheme %q, want %q", decoded.Scheme(), s)
			}
			fork := sim.NewMachine(cfg, s)
			if err := fork.RestoreSafe(decoded); err != nil {
				t.Fatal(err)
			}
			snapDriveSuffix(fork, nd)
			if got := fork.Result(); got != want {
				t.Errorf("decoded fork diverged:\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
}

// TestSnapshotCodecGolden pins the snapshot format, which bincodec
// derives from the Snapshot struct and the state structs it holds: the
// hash of each scheme's encoding is checked in. Encoding builds the plan
// of Snapshot, so a field the walker cannot encode panics here too. A
// changed hash means a changed format: bump SnapshotCodecVersion, so
// stores holding the old format miss instead of misdecoding, and re-pin.
func TestSnapshotCodecGolden(t *testing.T) {
	want := map[sim.Scheme]string{
		sim.SchemeBaseline:   "fd4b9e90fb01b0d1e477b7985ffee4840d5d47cd7b97ba2f705760f618274be4",
		sim.SchemeLowerbound: "297033552f856bda2ad92681b0a508236d421473b6bfdcfa08335351a9006e60",
		sim.SchemeMPK:        "60a929287c251f8938caa064d235e7d97d9b1a52ff18f7328cfdc54cf23b95ca",
		sim.SchemeLibmpk:     "78f1053e2dd59f1a78bd7735228f3d31ee2dd408ffb12190af682ad0ca66c208",
		sim.SchemeMPKVirt:    "a8518d720e411eeb5fb42eabddb1131c84843ec784fd30aaf853619f5f167af4",
		sim.SchemeDomainVirt: "4f677840c8500fba7d007356c9a1a4f340392a8aec10f13606a0cbc41d6a2da1",
	}
	for _, s := range sim.AllSchemes {
		snap, _, _ := codecSnapshot(t, s)
		data, err := sim.EncodeSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want[s] {
			t.Errorf("%s: snapshot encoding hashes to %s, pinned %s: the format changed; "+
				"bump sim.SnapshotCodecVersion (now %d) and re-pin", s, got, want[s], sim.SnapshotCodecVersion)
		}
	}
}

// TestSnapshotCodecDeterministic pins the content-addressing premise:
// identically-warmed machines encode to identical bytes, and re-encoding
// one snapshot is stable.
func TestSnapshotCodecDeterministic(t *testing.T) {
	for _, s := range []sim.Scheme{sim.SchemeLibmpk, sim.SchemeMPKVirt, sim.SchemeDomainVirt} {
		t.Run(string(s), func(t *testing.T) {
			a, _, _ := codecSnapshot(t, s)
			b, _, _ := codecSnapshot(t, s)
			da, err := sim.EncodeSnapshot(a)
			if err != nil {
				t.Fatal(err)
			}
			db, err := sim.EncodeSnapshot(b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(da, db) {
				t.Error("identical warmups encoded to different bytes")
			}
			da2, err := sim.EncodeSnapshot(a)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(da, da2) {
				t.Error("re-encoding the same snapshot is not stable")
			}
		})
	}
}

// TestSnapshotCodecRejectsTruncation cuts the encoding at many points;
// every prefix must fail with ErrSnapshotCorrupt, never panic or decode.
func TestSnapshotCodecRejectsTruncation(t *testing.T) {
	snap, _, _ := codecSnapshot(t, sim.SchemeMPKVirt)
	data, err := sim.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{0, 1, 7, 8, 11, 12, 13, len(data) / 4, len(data) / 2, len(data) - 9, len(data) - 1}
	for _, n := range cuts {
		if _, err := sim.DecodeSnapshot(data[:n]); !errors.Is(err, sim.ErrSnapshotCorrupt) {
			t.Errorf("truncation at %d: got %v, want ErrSnapshotCorrupt", n, err)
		}
	}
}

// TestSnapshotCodecRejectsCorruption flips one byte at a time across the
// buffer; the checksum must catch every flip.
func TestSnapshotCodecRejectsCorruption(t *testing.T) {
	snap, _, _ := codecSnapshot(t, sim.SchemeDomainVirt)
	data, err := sim.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	step := len(data)/64 + 1
	for i := 0; i < len(data); i += step {
		mut := bytes.Clone(data)
		mut[i] ^= 0x40
		if _, err := sim.DecodeSnapshot(mut); err == nil {
			t.Errorf("flipped byte %d: decode accepted corrupt data", i)
		}
	}
}

// TestSnapshotCodecRejectsFutureVersion patches the version field (and
// re-seals the checksum, as a newer writer would): the decoder must
// answer ErrSnapshotVersion, not misparse.
func TestSnapshotCodecRejectsFutureVersion(t *testing.T) {
	snap, _, _ := codecSnapshot(t, sim.SchemeLibmpk)
	data, err := sim.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	mut := sim.ResealSnapshotVersion(data, sim.SnapshotCodecVersion+7)
	if _, err := sim.DecodeSnapshot(mut); !errors.Is(err, sim.ErrSnapshotVersion) {
		t.Errorf("future version: got %v, want ErrSnapshotVersion", err)
	}
}

// TestRestoreSafeRejectsMismatch pins the untrusted-provenance guard:
// under every scheme, a snapshot restored into a machine of another
// scheme or of another core count, TLB, cache, DTTLB or PTLB size comes
// back from RestoreSafe as an error, and Restore panics with that error,
// not an index panic.
func TestRestoreSafeRejectsMismatch(t *testing.T) {
	for i, s := range sim.AllSchemes {
		snap, cfg, _ := codecSnapshot(t, s)
		data, err := sim.EncodeSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := sim.DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		type mismatch struct {
			name   string
			scheme sim.Scheme
			edit   func(*sim.Config)
		}
		cases := []mismatch{
			{"scheme", sim.AllSchemes[(i+1)%len(sim.AllSchemes)], func(*sim.Config) {}},
			{"Cores", s, func(c *sim.Config) { c.Cores += 2 }},
			{"L1TLB", s, func(c *sim.Config) { c.L1TLB.Entries *= 2 }},
			{"L2TLB", s, func(c *sim.Config) { c.L2TLB.Entries *= 2 }},
			{"L1D", s, func(c *sim.Config) { c.L1D.SizeBytes *= 2 }},
			{"L2", s, func(c *sim.Config) { c.L2.SizeBytes *= 2 }},
		}
		switch s {
		case sim.SchemeMPKVirt:
			cases = append(cases, mismatch{"DTTLBEntries", s, func(c *sim.Config) { c.DTTLBEntries *= 2 }})
		case sim.SchemeDomainVirt:
			cases = append(cases, mismatch{"PTLBEntries", s, func(c *sim.Config) { c.PTLBEntries *= 2 }})
		}
		for _, c := range cases {
			bad := cfg
			c.edit(&bad)
			err := sim.NewMachine(bad, c.scheme).RestoreSafe(decoded)
			if err == nil || !strings.Contains(err.Error(), "restore rejected") {
				t.Errorf("%s snapshot, %s mismatch: RestoreSafe = %v, want a rejection", s, c.name, err)
				continue
			}
			func() {
				defer func() {
					if p, ok := recover().(error); !ok || p.Error() != err.Error() {
						t.Errorf("%s snapshot, %s mismatch: Restore panicked with %v, want %v", s, c.name, p, err)
					}
				}()
				sim.NewMachine(bad, c.scheme).Restore(decoded)
			}()
		}
	}
}

// TestRestoreSafeRejectsResealedPayload: DecodeSnapshot checks only the
// envelope, so a payload cut mid-field, or followed by a stray byte, and
// resealed as an intact writer would seal it passes it. The restore that
// decodes the payload must reject it with ErrSnapshotCorrupt.
func TestRestoreSafeRejectsResealedPayload(t *testing.T) {
	snap, cfg, _ := codecSnapshot(t, sim.SchemeMPKVirt)
	data, err := sim.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	body := data[:len(data)-8]
	for name, payload := range map[string][]byte{
		"cut":      body[:len(body)/2],
		"trailing": append(bytes.Clone(body), 0),
	} {
		sealed := sim.ResealSnapshotVersion(append(bytes.Clone(payload), make([]byte, 8)...), sim.SnapshotCodecVersion)
		decoded, err := sim.DecodeSnapshot(sealed)
		if err != nil {
			t.Fatalf("%s: DecodeSnapshot = %v, want the envelope accepted", name, err)
		}
		if err := sim.NewMachine(cfg, sim.SchemeMPKVirt).RestoreSafe(decoded); !errors.Is(err, sim.ErrSnapshotCorrupt) {
			t.Errorf("%s: RestoreSafe = %v, want ErrSnapshotCorrupt", name, err)
		}
	}
}
