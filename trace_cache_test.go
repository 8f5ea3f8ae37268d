package domainvirt_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"domainvirt"
)

// traceFiles returns the trace files a store directory holds.
func traceFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.pmotrace"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// checkTraceStats fails the test unless cache replayed and recorded
// exactly the given numbers of traces.
func checkTraceStats(t *testing.T, label string, cache *domainvirt.SnapshotCache, replayed, recorded int) {
	t.Helper()
	if r, w := cache.TraceStats(); r != replayed || w != recorded {
		t.Errorf("%s: traces replayed=%d recorded=%d, want %d and %d", label, r, w, replayed, recorded)
	}
}

// TestTraceCacheReferee is the referee of trace-driven cells. On a
// persistent cache, for every scheme, four paths must return the same
// Result: the uncached Run; the build, which runs live and records the
// measured segment's trace; a memory hit; and a disk hit on a fresh
// cache over the same directory. The last two must replay the trace.
func TestTraceCacheReferee(t *testing.T) {
	cfg := domainvirt.DefaultConfig()
	cfg.Cores = 2
	mpkParams := cacheParams()
	mpkParams.NumPMOs = 8
	for _, name := range []string{"avl", "hashmap"} {
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
			t.Run(name+"/"+string(c.s), func(t *testing.T) {
				want, err := domainvirt.Run(name, c.p, c.s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				cache, err := domainvirt.NewSnapshotCacheDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				fresh := func() *domainvirt.SnapshotCache {
					fc, err := domainvirt.NewSnapshotCacheDir(dir)
					if err != nil {
						t.Fatal(err)
					}
					return fc
				}
				for _, step := range []struct {
					label              string
					cache              func() *domainvirt.SnapshotCache
					hit                bool
					replayed, recorded int
				}{
					{"build", func() *domainvirt.SnapshotCache { return cache }, false, 0, 1},
					{"memory hit", func() *domainvirt.SnapshotCache { return cache }, true, 1, 1},
					{"disk hit", fresh, true, 1, 0},
				} {
					sc := step.cache()
					got, hit, err := domainvirt.RunCached(name, c.p, c.s, cfg, sc)
					if err != nil {
						t.Fatalf("%s: %v", step.label, err)
					}
					if hit != step.hit {
						t.Errorf("%s: hit = %v, want %v", step.label, hit, step.hit)
					}
					if got != want {
						t.Errorf("%s: Result differs from Run:\n got: %+v\nwant: %+v", step.label, got, want)
					}
					checkTraceStats(t, step.label, sc, step.replayed, step.recorded)
				}
				if n := len(traceFiles(t, dir)); n != 1 {
					t.Errorf("store holds %d trace files, want 1", n)
				}
			})
		}
	}
}

// TestTraceReplayAcrossSchemesAndCosts: the trace key names neither the
// scheme nor the Config, so the trace one cell records serves the other
// schemes of its group and every cost variant, each to its own uncached
// Result.
func TestTraceReplayAcrossSchemesAndCosts(t *testing.T) {
	cfgA := domainvirt.DefaultConfig()
	cfgB := cfgA
	cfgB.Costs.TLBInval = 572
	cfgB.Mem.NVMLatency = 720
	cfgB.FenceCost = 25
	p := cacheParams()
	dir := t.TempDir()
	cache, err := domainvirt.NewSnapshotCacheDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := domainvirt.RunCached("avl", p, domainvirt.SchemeDomainVirt, cfgA, cache); err != nil {
		t.Fatal(err)
	}
	checkTraceStats(t, "recording", cache, 0, 1)
	schemes := []domainvirt.Scheme{
		domainvirt.SchemeLowerbound, domainvirt.SchemeLibmpk,
		domainvirt.SchemeMPKVirt, domainvirt.SchemeDomainVirt,
	}
	for _, s := range schemes {
		for i, cfg := range []domainvirt.Config{cfgA, cfgB} {
			want, err := domainvirt.Run("avl", p, s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := domainvirt.RunCached("avl", p, s, cfg, cache)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s under config %d: replayed Result differs from Run:\n got: %+v\nwant: %+v", s, i, got, want)
			}
		}
	}
	checkTraceStats(t, "replays", cache, 2*len(schemes), 1)
	if n := len(traceFiles(t, dir)); n != 1 {
		t.Errorf("store holds %d trace files, want 1", n)
	}
}

// TestTraceCacheConcurrent: eight goroutines run one group's four
// schemes twice over on one persistent cache. Whichever cells record
// and whichever replay, every Result equals the uncached one, no cell
// waits on a recording, and the store ends with one trace that a fresh
// cache replays for every scheme.
func TestTraceCacheConcurrent(t *testing.T) {
	p := domainvirt.Params{NumPMOs: 16, Ops: 200, InitialElems: 64, Threads: 2, Seed: 42}
	cfg := domainvirt.DefaultConfig()
	cfg.Cores = 2
	schemes := []domainvirt.Scheme{
		domainvirt.SchemeLowerbound, domainvirt.SchemeLibmpk,
		domainvirt.SchemeMPKVirt, domainvirt.SchemeDomainVirt,
	}
	want := make(map[domainvirt.Scheme]domainvirt.Result)
	for _, s := range schemes {
		r, err := domainvirt.Run("avl", p, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[s] = r
	}
	dir := t.TempDir()
	cache, err := domainvirt.NewSnapshotCacheDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	const cells = 8
	got := make([]domainvirt.Result, cells)
	errs := make([]error, cells)
	var wg sync.WaitGroup
	for i := 0; i < cells; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _, errs[i] = domainvirt.RunCached("avl", p, schemes[i%len(schemes)], cfg, cache)
		}()
	}
	wg.Wait()
	for i := 0; i < cells; i++ {
		s := schemes[i%len(schemes)]
		if errs[i] != nil {
			t.Fatalf("cell %d (%s): %v", i, s, errs[i])
		}
		if got[i] != want[s] {
			t.Errorf("cell %d (%s): Result differs from Run", i, s)
		}
	}
	if st := cache.Stats(); st != (domainvirt.SnapshotCacheStats{Warmups: len(schemes), MemHits: cells - len(schemes)}) {
		t.Errorf("stats = %+v, want one warmup and one memory hit per scheme", st)
	}
	// Every cell either replayed or ran live, and every live cell
	// published its recording.
	if replayed, recorded := cache.TraceStats(); recorded < 1 || replayed+recorded != cells {
		t.Errorf("traces replayed=%d recorded=%d, want at least one recording and %d in all", replayed, recorded, cells)
	}
	if n := len(traceFiles(t, dir)); n != 1 {
		t.Fatalf("store holds %d trace files, want 1", n)
	}
	fresh, err := domainvirt.NewSnapshotCacheDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range schemes {
		r, _, err := domainvirt.RunCached("avl", p, s, cfg, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if r != want[s] {
			t.Errorf("%s from the stored trace: Result differs from Run", s)
		}
	}
	checkTraceStats(t, "fresh cache", fresh, len(schemes), 0)
}

// resealTrace seals a trace body with the CRC-32C trailer the store
// verifies, so a test can plant bytes that pass the checksum.
func resealTrace(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

// TestTraceStoreHostileFiles mirrors TestSnapshotStoreHostileFiles for
// trace files. A warm cell finds a damaged trace next to a good
// checkpoint: it must delete the file, count one reject, measure live
// to the uncached Result, and write the good trace back.
func TestTraceStoreHostileFiles(t *testing.T) {
	p := cacheParams()
	cfg := domainvirt.DefaultConfig()
	s := domainvirt.SchemeMPKVirt
	want, err := domainvirt.Run("avl", p, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	body := func(b []byte) []byte { return append([]byte(nil), b[:len(b)-crc32.Size]...) }
	mutations := map[string]func([]byte) []byte{
		"empty":     func([]byte) []byte { return nil },
		"truncated": func(b []byte) []byte { return b[:len(b)/3] },
		"bitflip": func(b []byte) []byte {
			mut := append([]byte(nil), b...)
			mut[len(mut)/2] ^= 0x10
			return mut
		},
		// The end marker becomes an unknown event kind: the checksum
		// holds, the decoder rejects.
		"undecodable": func(b []byte) []byte {
			mut := body(b)
			mut[len(mut)-1] = 0xee
			return resealTrace(mut)
		},
		"other-version": func(b []byte) []byte {
			mut := body(b)
			mut[7]++
			return resealTrace(mut)
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			prime, err := domainvirt.NewSnapshotCacheDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := domainvirt.RunCached("avl", p, s, cfg, prime); err != nil {
				t.Fatal(err)
			}
			files := traceFiles(t, dir)
			if len(files) != 1 {
				t.Fatalf("primed store holds %d trace files, want 1", len(files))
			}
			good, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(files[0], mutate(good), 0o644); err != nil {
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
			if !hit {
				t.Error("the checkpoint next to the hostile trace missed")
			}
			if got != want {
				t.Errorf("live run after the reject diverged:\n got: %+v\nwant: %+v", got, want)
			}
			if st := cache.Stats(); st != (domainvirt.SnapshotCacheStats{DiskHits: 1, DiskRejects: 1}) {
				t.Errorf("stats = %+v, want 1 disk hit and 1 reject", st)
			}
			checkTraceStats(t, "warm cell", cache, 0, 1)
			if back, err := os.ReadFile(files[0]); err != nil || !bytes.Equal(back, good) {
				t.Errorf("store not repaired: %d bytes back (err %v), want the %d recorded at first", len(back), err, len(good))
			}
		})
	}
}
