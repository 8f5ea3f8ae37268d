package domainvirt_test

import (
	"testing"

	"domainvirt"
)

// horizonRef runs each horizon as a full independent simulation — the
// slow path the horizon fork must match bit-for-bit.
func horizonRef(t *testing.T, name string, p domainvirt.Params, s domainvirt.Scheme,
	cfg domainvirt.Config, horizons []int) []domainvirt.Result {
	t.Helper()
	var out []domainvirt.Result
	for _, h := range horizons {
		hp := p
		hp.Ops = h
		r, err := domainvirt.Run(name, hp, s, cfg)
		if err != nil {
			t.Fatalf("reference run at %d ops: %v", h, err)
		}
		out = append(out, r)
	}
	return out
}

// TestRunHorizonsBitIdentity: one measured pass must reproduce every
// horizon's independent Result exactly, for every scheme and with and
// without a cache.
func TestRunHorizonsBitIdentity(t *testing.T) {
	p := cacheParams()
	cfg := domainvirt.DefaultConfig()
	horizons := []int{150, 400, 900}
	for _, s := range []domainvirt.Scheme{
		domainvirt.SchemeBaseline,
		domainvirt.SchemeLowerbound,
		domainvirt.SchemeMPKVirt,
		domainvirt.SchemeDomainVirt,
	} {
		want := horizonRef(t, "avl", p, s, cfg, horizons)
		for _, cache := range []*domainvirt.SnapshotCache{nil, domainvirt.NewSnapshotCache()} {
			got, err := domainvirt.RunHorizons("avl", p, s, cfg, horizons, cache)
			if err != nil {
				t.Fatalf("%s: %v", s, err)
			}
			for i, h := range horizons {
				if got[i] != want[i] {
					t.Errorf("%s at horizon %d (cache=%v):\n got: %+v\nwant: %+v",
						s, h, cache != nil, got[i], want[i])
				}
			}
		}
	}
}

// TestRunHorizonsWhisper pins the fork on a transactional workload whose
// ops draw variable amounts of randomness (tpcc), the hardest case for
// prefix stability.
func TestRunHorizonsWhisper(t *testing.T) {
	p := domainvirt.Params{NumPMOs: 1, Ops: 1, InitialElems: 256, PoolSize: 2 << 30, Seed: 7}
	cfg := domainvirt.DefaultConfig()
	horizons := []int{80, 300}
	s := domainvirt.SchemeMPKVirt
	want := horizonRef(t, "tpcc", p, s, cfg, horizons)
	got, err := domainvirt.RunHorizons("tpcc", p, s, cfg, horizons, domainvirt.NewSnapshotCache())
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range horizons {
		if got[i] != want[i] {
			t.Errorf("tpcc at horizon %d:\n got: %+v\nwant: %+v", h, got[i], want[i])
		}
	}
}

// TestRunHorizonsSharesWarmup: the horizon pass must go through the
// shared warmup cache — one setup simulation, and a later RunCached cell
// for the same warmup identity forks instead of re-warming.
func TestRunHorizonsSharesWarmup(t *testing.T) {
	p := cacheParams()
	cfg := domainvirt.DefaultConfig()
	cache := domainvirt.NewSnapshotCache()
	if _, err := domainvirt.RunHorizons("avl", p, domainvirt.SchemeDomainVirt, cfg,
		[]int{200, 600}, cache); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Warmups != 1 {
		t.Errorf("horizon pass stats = %+v, want exactly 1 warmup", st)
	}
	if _, hit, err := domainvirt.RunCached("avl", p, domainvirt.SchemeDomainVirt, cfg, cache); err != nil {
		t.Fatal(err)
	} else if !hit {
		t.Error("RunCached missed the warmup the horizon pass built")
	}
}

// TestRunHorizonsPersistentResume is the cross-process referee for
// mid-run checkpoints: a second process re-running the sweep serves
// every horizon from disk with zero simulation, and a third process
// extending the ladder resumes from the deepest stored checkpoint —
// never re-simulating the shared prefix — while staying bit-identical
// to independent runs.
func TestRunHorizonsPersistentResume(t *testing.T) {
	dir := t.TempDir()
	p := cacheParams()
	cfg := domainvirt.DefaultConfig()
	s := domainvirt.SchemeDomainVirt
	horizons := []int{150, 400, 900}
	want := horizonRef(t, "avl", p, s, cfg, horizons)

	first, err := domainvirt.NewSnapshotCacheDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := domainvirt.RunHorizons("avl", p, s, cfg, horizons, first)
	if err != nil {
		t.Fatal(err)
	}
	for i := range horizons {
		if got[i] != want[i] {
			t.Errorf("first process at horizon %d diverged", horizons[i])
		}
	}
	for _, h := range horizons {
		key := domainvirt.HorizonKeyFor("avl", p, s, cfg, h)
		if !first.HasStored(key) {
			t.Errorf("horizon %d checkpoint not persisted", h)
		}
	}

	// Second process, same ladder: all horizons from disk, no simulation.
	second, err := domainvirt.NewSnapshotCacheDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := domainvirt.RunHorizons("avl", p, s, cfg, horizons, second)
	if err != nil {
		t.Fatal(err)
	}
	for i := range horizons {
		if got2[i] != want[i] {
			t.Errorf("second process at horizon %d diverged", horizons[i])
		}
	}
	if st := second.Stats(); st.Warmups != 0 || st.DiskHits != len(horizons) || st.DiskRejects != 0 {
		t.Errorf("second-process stats = %+v, want 0 warmups and %d disk hits", st, len(horizons))
	}

	// Third process extends the ladder: stored horizons come from disk,
	// and the new deepest one is simulated only from the 900-op
	// checkpoint onward (zero warmups — not even the setup phase runs on
	// a machine).
	extended := append(append([]int(nil), horizons...), 1400)
	wantExt := horizonRef(t, "avl", p, s, cfg, extended)
	third, err := domainvirt.NewSnapshotCacheDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got3, err := domainvirt.RunHorizons("avl", p, s, cfg, extended, third)
	if err != nil {
		t.Fatal(err)
	}
	for i := range extended {
		if got3[i] != wantExt[i] {
			t.Errorf("resumed process at horizon %d:\n got: %+v\nwant: %+v",
				extended[i], got3[i], wantExt[i])
		}
	}
	if st := third.Stats(); st.Warmups != 0 || st.DiskHits != len(horizons) {
		t.Errorf("resume stats = %+v, want 0 warmups and %d disk hits", st, len(horizons))
	}

	// The resumed pass stored the new checkpoint: a fourth process with
	// the extended ladder is all disk hits.
	fourth, err := domainvirt.NewSnapshotCacheDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := domainvirt.RunHorizons("avl", p, s, cfg, extended, fourth); err != nil {
		t.Fatal(err)
	}
	if st := fourth.Stats(); st.Warmups != 0 || st.DiskHits != len(extended) {
		t.Errorf("fourth-process stats = %+v, want all %d horizons from disk", st, len(extended))
	}
}

// TestRunHorizonsNeverReplays: a store primed by RunCached holds the
// warmup checkpoint and the trace of the measured segment at the
// largest horizon, and no horizon checkpoint. The horizon pass must
// still run live, since a trace marks no op boundary for AtOpEnd, and
// match independent runs at every horizon.
func TestRunHorizonsNeverReplays(t *testing.T) {
	dir := t.TempDir()
	p := cacheParams()
	p.Ops = 400
	cfg := domainvirt.DefaultConfig()
	s := domainvirt.SchemeDomainVirt
	prime, err := domainvirt.NewSnapshotCacheDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := domainvirt.RunCached("avl", p, s, cfg, prime); err != nil {
		t.Fatal(err)
	}
	if _, recorded := prime.TraceStats(); recorded != 1 {
		t.Fatalf("priming recorded %d traces, want 1", recorded)
	}
	horizons := []int{100, 200, 400}
	want := horizonRef(t, "avl", p, s, cfg, horizons)
	fresh, err := domainvirt.NewSnapshotCacheDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := domainvirt.RunHorizons("avl", p, s, cfg, horizons, fresh)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range horizons {
		if got[i] != want[i] {
			t.Errorf("horizon %d:\n got: %+v\nwant: %+v", h, got[i], want[i])
		}
	}
	if replayed, recorded := fresh.TraceStats(); replayed != 0 || recorded != 0 {
		t.Errorf("horizon pass replayed %d and recorded %d traces, want neither", replayed, recorded)
	}
	if st := fresh.Stats(); st != (domainvirt.SnapshotCacheStats{DiskHits: 1}) {
		t.Errorf("stats = %+v, want the warmup checkpoint from disk only", st)
	}
}

// TestRunHorizonsValidation rejects malformed ladders.
func TestRunHorizonsValidation(t *testing.T) {
	p := cacheParams()
	cfg := domainvirt.DefaultConfig()
	for _, bad := range [][]int{nil, {}, {0, 100}, {-5}, {100, 100}, {300, 100}} {
		if _, err := domainvirt.RunHorizons("avl", p, domainvirt.SchemeBaseline, cfg, bad, nil); err == nil {
			t.Errorf("horizons %v accepted", bad)
		}
	}
}

// TestHorizonKeySensitivity: unlike warmup keys, mid-run checkpoint keys
// must move when any cost parameter moves — measured counters embed the
// cost model.
func TestHorizonKeySensitivity(t *testing.T) {
	p := cacheParams()
	cfgA := domainvirt.DefaultConfig()
	cfgB := cfgA
	cfgB.Costs.TLBInval = 572
	keyA := domainvirt.HorizonKeyFor("avl", p, domainvirt.SchemeDomainVirt, cfgA, 500)
	if k := domainvirt.HorizonKeyFor("avl", p, domainvirt.SchemeDomainVirt, cfgB, 500); k == keyA {
		t.Error("cost-only config change did not move the horizon key")
	}
	if k := domainvirt.HorizonKeyFor("avl", p, domainvirt.SchemeDomainVirt, cfgA, 501); k == keyA {
		t.Error("ops change did not move the horizon key")
	}
	opsOnly := p
	opsOnly.Ops = p.Ops * 3
	if k := domainvirt.HorizonKeyFor("avl", opsOnly, domainvirt.SchemeDomainVirt, cfgA, 500); k != keyA {
		t.Error("Params.Ops leaked into the horizon key; the horizon argument is the run length")
	}
}

// TestHorizonSweepExperiment smoke-tests the experiment wrapper against
// Fig.6-style per-horizon reference cells.
func TestHorizonSweepExperiment(t *testing.T) {
	opt := domainvirt.DefaultExpOptions()
	opt.Snapshots = domainvirt.NewSnapshotCache()
	p := cacheParams()
	horizons := []int{200, 600}
	rows, err := domainvirt.HorizonSweep(opt, "avl", p, horizons)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(horizons) {
		t.Fatalf("got %d rows, want %d", len(rows), len(horizons))
	}
	refP := p
	refP.Ops = horizons[1]
	res, err := domainvirt.RunSchemes("avl", refP, opt.Cfg,
		domainvirt.SchemeLowerbound, domainvirt.SchemeDomainVirt)
	if err != nil {
		t.Fatal(err)
	}
	wantPct := res[domainvirt.SchemeDomainVirt].OverheadPct(res[domainvirt.SchemeLowerbound])
	if rows[1].DomVirtPct != wantPct {
		t.Errorf("sweep row overhead %.6f, want %.6f", rows[1].DomVirtPct, wantPct)
	}
	if rows[1].Ops != horizons[1] {
		t.Errorf("row ops = %d, want %d", rows[1].Ops, horizons[1])
	}
}

// TestHorizonLadder pins the default ladder shape.
func TestHorizonLadder(t *testing.T) {
	hs := domainvirt.HorizonHorizonsFor(4000)
	if len(hs) == 0 || hs[len(hs)-1] != 4000 {
		t.Fatalf("ladder %v must end at the full budget", hs)
	}
	for i := 1; i < len(hs); i++ {
		if hs[i] <= hs[i-1] {
			t.Fatalf("ladder %v not ascending", hs)
		}
	}
}
