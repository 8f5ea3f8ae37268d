package domainvirt_test

import (
	"os"
	"path/filepath"
	"testing"

	"domainvirt"
	"domainvirt/internal/sim"
)

// storeFile returns the single snapshot file a primed store directory
// holds.
func storeFile(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.pmosnap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("store dir holds %d snapshot files, want 1: %v", len(matches), matches)
	}
	return matches[0]
}

// primeStore simulates the first process: builds one warmup into dir and
// returns the reference result.
func primeStore(t *testing.T, dir string, p domainvirt.Params, s domainvirt.Scheme, cfg domainvirt.Config) domainvirt.Result {
	t.Helper()
	cache, err := domainvirt.NewSnapshotCacheDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, hit, err := domainvirt.RunCached("avl", p, s, cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first run against an empty store reported a hit")
	}
	if st := cache.Stats(); st.Warmups != 1 || st.DiskHits != 0 {
		t.Fatalf("priming stats = %+v, want 1 warmup, 0 disk hits", st)
	}
	return res
}

// TestSnapshotStoreCrossProcess is the persistence referee: a second
// cache over the same directory (a fresh process in the ci.sh grid-twice
// gate) must serve the warmup from disk — zero setup re-simulations —
// and run the cell on the machine that validated the file to a result
// bit-identical to the uncached Run, as must the cell that built the
// checkpoint. Every scheme is covered, raw MPK within its key limit.
func TestSnapshotStoreCrossProcess(t *testing.T) {
	cfg := domainvirt.DefaultConfig()
	mpkParams := cacheParams()
	mpkParams.NumPMOs = 8
	for _, c := range []struct {
		s domainvirt.Scheme
		p domainvirt.Params
	}{
		{domainvirt.SchemeBaseline, cacheParams()},
		{domainvirt.SchemeLowerbound, cacheParams()},
		{domainvirt.SchemeMPK, mpkParams},
		{domainvirt.SchemeLibmpk, cacheParams()},
		{domainvirt.SchemeMPKVirt, cacheParams()},
		{domainvirt.SchemeDomainVirt, cacheParams()},
	} {
		t.Run(string(c.s), func(t *testing.T) {
			dir := t.TempDir()
			p, s := c.p, c.s
			want, err := domainvirt.Run("avl", p, s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if built := primeStore(t, dir, p, s, cfg); built != want {
				t.Errorf("cache-building Result differs from Run:\n got: %+v\nwant: %+v", built, want)
			}

			second, err := domainvirt.NewSnapshotCacheDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			got, hit, err := domainvirt.RunCached("avl", p, s, cfg, second)
			if err != nil {
				t.Fatal(err)
			}
			if !hit {
				t.Error("second process missed the stored warmup")
			}
			if got != want {
				t.Errorf("disk-served Result differs from Run:\n got: %+v\nwant: %+v", got, want)
			}
			if st := second.Stats(); st.Warmups != 0 || st.DiskHits != 1 || st.DiskRejects != 0 {
				t.Errorf("second-process stats = %+v, want 0 warmups, 1 disk hit, 0 rejects", st)
			}

			// Cells differing only in the ops horizon share the stored warmup.
			longer := p
			longer.Ops = p.Ops * 2
			third, err := domainvirt.NewSnapshotCacheDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, hit, err := domainvirt.RunCached("avl", longer, s, cfg, third); err != nil {
				t.Fatal(err)
			} else if !hit {
				t.Error("ops-horizon variant missed the stored warmup")
			}
			if st := third.Stats(); st.Warmups != 0 {
				t.Errorf("ops variant re-simulated the warmup: %+v", st)
			}
		})
	}
}

// TestSnapshotStoreKeyStability pins the content address across cost
// variations (same key: one warmup serves a cost sweep) and structural
// variations (different key).
func TestSnapshotStoreKeyStability(t *testing.T) {
	p := cacheParams()
	cfgA := domainvirt.DefaultConfig()
	cfgB := cfgA
	cfgB.Costs.TLBInval = 572
	cfgB.Mem.NVMLatency = 720
	keyA := domainvirt.SnapshotKeyFor("avl", p, domainvirt.SchemeDomainVirt, cfgA)
	if keyA == "" {
		t.Fatal("empty snapshot key")
	}
	if k := domainvirt.SnapshotKeyFor("avl", p, domainvirt.SchemeDomainVirt, cfgB); k != keyA {
		t.Error("cost-only config change moved the snapshot key")
	}
	longer := p
	longer.Ops = 99999
	if k := domainvirt.SnapshotKeyFor("avl", longer, domainvirt.SchemeDomainVirt, cfgA); k != keyA {
		t.Error("ops horizon is part of the warmup key; horizon rows cannot share warmups")
	}
	cfgC := cfgA
	cfgC.PTLBEntries = 8
	if k := domainvirt.SnapshotKeyFor("avl", p, domainvirt.SchemeDomainVirt, cfgC); k == keyA {
		t.Error("structural config change did not move the snapshot key")
	}
	if k := domainvirt.SnapshotKeyFor("avl", p, domainvirt.SchemeMPKVirt, cfgA); k == keyA {
		t.Error("scheme change did not move the snapshot key")
	}
}

// TestSnapshotStoreHostileFiles: a primed store whose file is truncated,
// bit-flipped, or rewritten by a future codec must be rejected and
// rebuilt — correct results, reject counted, never a corrupt machine.
func TestSnapshotStoreHostileFiles(t *testing.T) {
	p := cacheParams()
	cfg := domainvirt.DefaultConfig()
	s := domainvirt.SchemeMPKVirt

	mutations := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/3] },
		"bitflip": func(b []byte) []byte {
			mut := append([]byte(nil), b...)
			mut[len(mut)/2] ^= 0x10
			return mut
		},
		"future-version": func(b []byte) []byte {
			return sim.ResealSnapshotVersion(b, sim.SnapshotCodecVersion+1)
		},
		"empty": func([]byte) []byte { return nil },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			want := primeStore(t, dir, p, s, cfg)
			file := storeFile(t, dir)
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}

			cache, err := domainvirt.NewSnapshotCacheDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			got, hit, err := domainvirt.RunCached("avl", p, s, cfg, cache)
			if err != nil {
				t.Fatal(err)
			}
			if hit {
				t.Error("hostile file served as a snapshot hit")
			}
			if got != want {
				t.Errorf("post-reject rebuild diverged:\n got: %+v\nwant: %+v", got, want)
			}
			st := cache.Stats()
			if st.DiskRejects != 1 || st.Warmups != 1 {
				t.Errorf("stats = %+v, want 1 reject and 1 rebuild", st)
			}

			// The rebuild overwrote the bad file: a third process hits.
			after, err := domainvirt.NewSnapshotCacheDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, hit, err := domainvirt.RunCached("avl", p, s, cfg, after); err != nil {
				t.Fatal(err)
			} else if !hit {
				t.Error("store not repaired after reject")
			}
		})
	}
}

// TestSnapshotStoreVanishedCheckpoint: a checkpoint deleted from the
// store after this cache built it is rebuilt by the next call, which
// reports no hit, counts a second warmup and measures the uncached
// Result. A store that loses a file costs a rebuild, never a wrong
// result.
func TestSnapshotStoreVanishedCheckpoint(t *testing.T) {
	p := cacheParams()
	cfg := domainvirt.DefaultConfig()
	s := domainvirt.SchemeMPKVirt
	want, err := domainvirt.Run("avl", p, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cache, err := domainvirt.NewSnapshotCacheDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := domainvirt.RunCached("avl", p, s, cfg, cache); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(storeFile(t, dir)); err != nil {
		t.Fatal(err)
	}
	got, hit, err := domainvirt.RunCached("avl", p, s, cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("a call whose checkpoint vanished reported a hit")
	}
	if got != want {
		t.Errorf("rebuilt cell diverged:\n got: %+v\nwant: %+v", got, want)
	}
	if st := cache.Stats(); st != (domainvirt.SnapshotCacheStats{Warmups: 2}) {
		t.Errorf("stats = %+v, want 2 warmups only", st)
	}
	storeFile(t, dir) // the rebuild wrote the checkpoint back
}

// TestSnapshotStoreGeometryMismatch: a valid snapshot file planted under
// a key whose cell expects different geometry must be rejected via
// RestoreSafe, not crash the process.
func TestSnapshotStoreGeometryMismatch(t *testing.T) {
	p := cacheParams()
	cfg2 := domainvirt.DefaultConfig()
	cfg2.Cores = 2
	cfg4 := domainvirt.DefaultConfig()
	cfg4.Cores = 4

	dir := t.TempDir()
	primeStore(t, dir, p, domainvirt.SchemeDomainVirt, cfg2)
	twoCoreFile := storeFile(t, dir)
	data, err := os.ReadFile(twoCoreFile)
	if err != nil {
		t.Fatal(err)
	}
	// Plant the 2-core snapshot under the 4-core cell's key.
	key4 := domainvirt.SnapshotKeyFor("avl", p, domainvirt.SchemeDomainVirt, cfg4)
	if err := os.WriteFile(filepath.Join(dir, key4+".pmosnap"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	want, err := domainvirt.Run("avl", p, domainvirt.SchemeDomainVirt, cfg4)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := domainvirt.NewSnapshotCacheDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, hit, err := domainvirt.RunCached("avl", p, domainvirt.SchemeDomainVirt, cfg4, cache)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("geometry-mismatched snapshot served as a hit")
	}
	if got != want {
		t.Errorf("post-mismatch rebuild diverged:\n got: %+v\nwant: %+v", got, want)
	}
	if st := cache.Stats(); st.DiskRejects != 1 {
		t.Errorf("stats = %+v, want 1 reject", st)
	}
}
