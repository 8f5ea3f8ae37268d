package domainvirt_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"domainvirt"
)

func cacheParams() domainvirt.Params {
	return domainvirt.Params{NumPMOs: 64, Ops: 600, InitialElems: 128, Threads: 2, Seed: 42}
}

// TestSnapshotCacheBitIdentical is the cache's referee: for every scheme
// the uncached Run, the cache-building RunCached, and the RunCached
// served from the memory cache's checkpoint must return the exact same
// Result — and the hit flag must report which path served each call.
// The build records the measured segment's trace and the hit replays
// it, as on a directory cache. One multi-PMO and one single-PMO
// (WHISPER) workload keep both setup shapes covered without making the
// race-enabled suite crawl.
func TestSnapshotCacheBitIdentical(t *testing.T) {
	cfg := domainvirt.DefaultConfig()
	cfg.Cores = 2
	for _, name := range []string{"avl", "hashmap"} {
		for _, s := range []domainvirt.Scheme{
			domainvirt.SchemeBaseline, domainvirt.SchemeLowerbound,
			domainvirt.SchemeLibmpk, domainvirt.SchemeMPKVirt,
			domainvirt.SchemeDomainVirt,
		} {
			cache := domainvirt.NewSnapshotCache()
			want, err := domainvirt.Run(name, cacheParams(), s, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, s, err)
			}
			build, hit, err := domainvirt.RunCached(name, cacheParams(), s, cfg, cache)
			if err != nil {
				t.Fatalf("%s/%s cached build: %v", name, s, err)
			}
			if hit {
				t.Errorf("%s/%s: first cached run reported a snapshot hit", name, s)
			}
			if build != want {
				t.Errorf("%s/%s: cache-building Result differs from Run", name, s)
			}
			checkTraceStats(t, name+"/"+string(s)+" build", cache, 0, 1)
			served, hit, err := domainvirt.RunCached(name, cacheParams(), s, cfg, cache)
			if err != nil {
				t.Fatalf("%s/%s cached hit: %v", name, s, err)
			}
			if !hit {
				t.Errorf("%s/%s: second cached run missed the snapshot", name, s)
			}
			if served != want {
				t.Errorf("%s/%s: checkpoint-served Result differs from Run", name, s)
			}
			checkTraceStats(t, name+"/"+string(s)+" hit", cache, 1, 1)
			if cache.Len() != 1 {
				t.Errorf("%s/%s: cache holds %d entries, want 1", name, s, cache.Len())
			}
		}
	}
}

// TestSnapshotCacheMPKScheme: the raw-MPK scheme only supports <= 15
// domains; the cache must serve it bit-identically in that regime.
func TestSnapshotCacheMPKScheme(t *testing.T) {
	cfg := domainvirt.DefaultConfig()
	p := domainvirt.Params{NumPMOs: 8, Ops: 1000, InitialElems: 128, Seed: 42}
	cache := domainvirt.NewSnapshotCache()
	want, err := domainvirt.Run("avl", p, domainvirt.SchemeMPK, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := domainvirt.RunCached("avl", p, domainvirt.SchemeMPK, cfg, cache); err != nil {
		t.Fatal(err)
	}
	got, hit, err := domainvirt.RunCached("avl", p, domainvirt.SchemeMPK, cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || got != want {
		t.Errorf("mpk cached fork: hit=%v, identical=%v", hit, got == want)
	}
}

// TestSnapshotCacheCostIndependence: the cache key covers structural
// configuration only, so a warmup built under one cost parameterization
// must serve a cell running under another — and yield exactly the result
// the uncached path produces under the new costs. This is what lets one
// warmup back a whole cost-ablation sweep.
func TestSnapshotCacheCostIndependence(t *testing.T) {
	cfgA := domainvirt.DefaultConfig()
	cfgB := domainvirt.DefaultConfig()
	cfgB.Costs.TLBInval = 572
	cfgB.Mem.NVMLatency = 720
	cfgB.FenceCost = 25

	for _, s := range []domainvirt.Scheme{domainvirt.SchemeMPKVirt, domainvirt.SchemeDomainVirt} {
		cache := domainvirt.NewSnapshotCache()
		// Build the checkpoint under cfgA's costs.
		if _, _, err := domainvirt.RunCached("avl", cacheParams(), s, cfgA, cache); err != nil {
			t.Fatal(err)
		}
		want, err := domainvirt.Run("avl", cacheParams(), s, cfgB)
		if err != nil {
			t.Fatal(err)
		}
		got, hit, err := domainvirt.RunCached("avl", cacheParams(), s, cfgB, cache)
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Errorf("%s: cost-variant run missed the structurally identical snapshot", s)
		}
		if got != want {
			t.Errorf("%s: cost-variant forked Result differs from uncached run", s)
		}
		if cache.Len() != 1 {
			t.Errorf("%s: cost sweep grew the cache to %d entries, want 1", s, cache.Len())
		}

		// A structural change must NOT share the warmup.
		cfgC := cfgA
		cfgC.DTTLBEntries = 8
		cfgC.PTLBEntries = 8
		if _, hit, err := domainvirt.RunCached("avl", cacheParams(), s, cfgC, cache); err != nil {
			t.Fatal(err)
		} else if hit {
			t.Errorf("%s: structurally different config reported a snapshot hit", s)
		}
	}
}

// TestSnapshotCacheObservedExports: every observed cached path must
// export byte-identical artifacts to the uncached observed path —
// manifests, epoch series, and histograms alike. One-cell grids cover
// each way a cache serves a warmup: the cell that builds the checkpoint
// (and runs live on the machine it built, recording the trace), a
// memory hit, and a disk hit in a fresh cache over the primed directory
// (on the machine that validated the file). The last two replay the
// recorded trace with the recorder attached.
func TestSnapshotCacheObservedExports(t *testing.T) {
	grid := func(cache *domainvirt.SnapshotCache) map[string][]byte {
		t.Helper()
		opt := domainvirt.DefaultExpOptions()
		opt.Snapshots = cache
		opt.Obs = domainvirt.ExpObs{Dir: t.TempDir(), Epoch: 2000}
		if _, err := domainvirt.RunSchemesOpt("avl", cacheParams(), opt, domainvirt.SchemeDomainVirt); err != nil {
			t.Fatal(err)
		}
		return dirBytes(t, opt.Obs.Dir)
	}
	want := grid(nil)
	dir := t.TempDir()
	cache, err := domainvirt.NewSnapshotCacheDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	build := grid(cache)
	if st := cache.Stats(); st.Warmups != 1 || st.MemHits != 0 {
		t.Fatalf("cache-building grid: stats %+v, want 1 warmup", st)
	}
	checkTraceStats(t, "cache-building grid", cache, 0, 1)
	mem := grid(cache)
	if st := cache.Stats(); st.Warmups != 1 || st.MemHits != 1 {
		t.Fatalf("memory-hit grid: stats %+v, want 1 memory hit", st)
	}
	checkTraceStats(t, "memory-hit grid", cache, 1, 1)
	disk, err := domainvirt.NewSnapshotCacheDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fromDisk := grid(disk)
	if st := disk.Stats(); st.DiskHits != 1 || st.Warmups != 0 {
		t.Fatalf("fresh cache over the primed store: stats %+v, want 1 disk hit", st)
	}
	checkTraceStats(t, "disk-hit grid", disk, 1, 0)

	if len(want) == 0 {
		t.Fatal("uncached observed grid exported nothing")
	}
	for _, c := range []struct {
		path  string
		files map[string][]byte
	}{{"cache-building", build}, {"memory-hit", mem}, {"disk-hit", fromDisk}} {
		if !reflect.DeepEqual(c.files, want) {
			t.Errorf("%s: observed grid exports differ from the uncached grid's", c.path)
		}
	}
}

// TestGridSnapshotReuse: a grid run with a shared SnapshotCache must
// produce the same rows as without, tag progress lines with the warmup
// source, and serve repeated grids entirely from snapshots. A small
// RunSchemesOpt grid exercises the same runGrid path as the table
// runners at a fraction of Table VI's 1024-PMO setup cost.
func TestGridSnapshotReuse(t *testing.T) {
	p := domainvirt.Params{NumPMOs: 128, Ops: 400, InitialElems: 128, Seed: 42}
	schemes := []domainvirt.Scheme{
		domainvirt.SchemeBaseline, domainvirt.SchemeLowerbound,
		domainvirt.SchemeMPKVirt, domainvirt.SchemeDomainVirt,
	}
	opt := domainvirt.DefaultExpOptions()
	opt.Workers = 4
	plain, err := domainvirt.RunSchemesOpt("avl", p, opt, schemes...)
	if err != nil {
		t.Fatal(err)
	}

	var progress bytes.Buffer
	opt.Progress = &progress
	opt.Snapshots = domainvirt.NewSnapshotCache()
	first, err := domainvirt.RunSchemesOpt("avl", p, opt, schemes...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, first) {
		t.Error("snapshot-cached grid rows differ from plain rows")
	}
	if !strings.Contains(progress.String(), " (warmup)") {
		t.Errorf("first grid run shows no (warmup) cells:\n%s", progress.String())
	}
	if strings.Contains(progress.String(), " (snapshot)") {
		t.Errorf("first grid run claims snapshot hits:\n%s", progress.String())
	}

	progress.Reset()
	second, err := domainvirt.RunSchemesOpt("avl", p, opt, schemes...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, second) {
		t.Error("second snapshot-cached grid rows differ from plain rows")
	}
	if strings.Contains(progress.String(), " (warmup)") {
		t.Errorf("second grid run re-simulated a warmup:\n%s", progress.String())
	}
	if !strings.Contains(progress.String(), " (snapshot)") {
		t.Errorf("second grid run shows no snapshot hits:\n%s", progress.String())
	}
}

// TestAblationCostsSharesWarmups: every AblationCosts row varies only
// cost parameters, so with a cache attached the whole 6-row x 4-scheme
// sweep must build exactly one warmup per scheme. Bit-identity of the
// forked cells against the uncached path is already pinned per scheme
// by TestSnapshotCacheBitIdentical and TestSnapshotCacheCostIndependence,
// so this test asserts only the sharing (a second full sweep would
// double its wall-clock for no new coverage).
func TestAblationCostsSharesWarmups(t *testing.T) {
	opt := tinyExpOptions()
	opt.MicroOps = 200
	opt.Workers = 2
	opt.Snapshots = domainvirt.NewSnapshotCache()
	rows, err := domainvirt.AblationCosts(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("AblationCosts returned %d rows, want 6", len(rows))
	}
	if n := opt.Snapshots.Len(); n != 4 {
		t.Errorf("AblationCosts built %d warmups, want 4 (one per scheme)", n)
	}
}
