package sim_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"domainvirt/internal/core"
	"domainvirt/internal/memlayout"
	"domainvirt/internal/sim"
)

// snapDrivePrefix drives a deterministic mixed prefix: attaches, grants,
// warm accesses, a denial, and cross-thread traffic, leaving every
// engine with nontrivial state (keys assigned, PTLB/DTTLB filled, PKRU
// images saved, LRU clocks advanced, faults recorded).
func snapDrivePrefix(tb testing.TB, m *sim.Machine, nd int) {
	tb.Helper()
	for d := core.DomainID(1); d <= core.DomainID(nd); d++ {
		if err := m.Attach(d, benchRegion(d), core.PermRW); err != nil {
			tb.Fatal(err)
		}
	}
	for th := core.ThreadID(1); th <= 3; th++ {
		for d := core.DomainID(1); d <= core.DomainID(nd); d++ {
			m.SetPerm(th, d, core.PermRW, 0)
		}
	}
	for th := core.ThreadID(1); th <= 3; th++ {
		for d := core.DomainID(1); d <= core.DomainID(nd); d++ {
			r := benchRegion(d)
			m.Instr(th, 7)
			for p := 0; p < 6; p++ {
				m.Access(th, r.Base+memlayout.VA(p*memlayout.PageSize+int(th)*8), 8, p%2 == 0)
			}
			m.Fetch(th, r.Base+memlayout.VA(int(d)*64))
			m.Fence(th)
		}
	}
	// One revoke + denied access so fault records are part of the state.
	m.SetPerm(2, 1, core.PermNone, 0)
	m.Access(2, benchRegion(1).Base, 8, false)
	m.SetPerm(2, 1, core.PermRW, 0)
}

// snapDriveSuffix drives the continuation stream whose results the
// snapshot fork must reproduce bit-identically: same-page loops (L0 fast
// path), page strides, permission churn that forces key remaps under the
// virtualization engines, demand mapping of fresh pages, and context
// switches onto every core.
func snapDriveSuffix(m *sim.Machine, nd int) {
	for i := 0; i < 400; i++ {
		th := core.ThreadID(1 + i%3)
		d := core.DomainID(1 + i%nd)
		r := benchRegion(d)
		m.Instr(th, 5)
		if i%17 == 0 {
			p := core.PermR
			if i%34 == 0 {
				p = core.PermRW
			}
			m.SetPerm(th, d, p, 0)
		}
		va := r.Base + memlayout.VA((i%8)*memlayout.PageSize) + memlayout.VA((i%29)*64)
		m.Access(th, va, 8, i%3 == 0)
		m.Access(th, va, 8, false)
		if i%41 == 0 {
			// First touch of a page past the warmed set: demand mapping.
			m.Access(th, r.Base+memlayout.VA((64+i)*memlayout.PageSize), 8, true)
		}
		if i%23 == 0 {
			m.Fence(th)
		}
	}
	m.FlushObs()
}

// snapDomains exceeds the 15 usable MPK keys for the virtualization
// engines so suffix traffic forces key eviction/remap protocols; the
// plain MPK engine caps at its architectural limit.
func snapDomains(s sim.Scheme) int {
	if s == sim.SchemeMPK {
		return 12
	}
	return 20
}

// snapConfig is a multicore configuration so snapshots cover cross-core
// state: per-core TLBs/PTLBs/DTTLBs, saved PKRU images, the coherence
// directory, and context-switch bookkeeping.
func snapConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cores = 2
	return cfg
}

// TestSnapshotRestoreBitIdentical is the referee for the snapshot layer:
// for every scheme, continuing the original machine and continuing a
// fresh machine restored from its snapshot must produce byte-identical
// Results and fault records.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	for _, s := range sim.AllSchemes {
		t.Run(string(s), func(t *testing.T) {
			nd := snapDomains(s)
			cfg := snapConfig()
			m := sim.NewMachine(cfg, s)
			snapDrivePrefix(t, m, nd)
			m.ResetStats()
			snap := m.Snapshot()

			snapDriveSuffix(m, nd)
			want := m.Result()
			wantFaults := m.Faults()

			fork := sim.NewMachine(cfg, s)
			fork.Restore(snap)
			snapDriveSuffix(fork, nd)
			got := fork.Result()

			if got != want {
				t.Errorf("forked result differs:\n got: %+v\nwant: %+v", got, want)
			}
			if !reflect.DeepEqual(fork.Faults(), wantFaults) {
				t.Errorf("forked faults differ: got %v want %v", fork.Faults(), wantFaults)
			}
		})
	}
}

// TestSnapshotImmutableAcrossRestores forks the same snapshot twice in
// sequence: if the first fork's run leaked mutations into the snapshot
// (state shared between restores), the second fork diverges.
func TestSnapshotImmutableAcrossRestores(t *testing.T) {
	for _, s := range sim.AllSchemes {
		t.Run(string(s), func(t *testing.T) {
			nd := snapDomains(s)
			cfg := snapConfig()
			m := sim.NewMachine(cfg, s)
			snapDrivePrefix(t, m, nd)
			m.ResetStats()
			snap := m.Snapshot()

			first := sim.NewMachine(cfg, s)
			first.Restore(snap)
			snapDriveSuffix(first, nd)
			want := first.Result()

			second := sim.NewMachine(cfg, s)
			second.Restore(snap)
			snapDriveSuffix(second, nd)
			if got := second.Result(); got != want {
				t.Errorf("second restore diverged:\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
}

// TestSnapshotIndependentOfSource: a warmup cache's builder keeps
// running its cell on the machine it snapshotted, so the snapshot must
// share no state with its source. The source is driven on through
// accesses, permission churn whose key remaps evict keys and shoot down
// TLB entries, detaches, fresh attaches and denied accesses; the
// snapshot's encoding must not move.
func TestSnapshotIndependentOfSource(t *testing.T) {
	for _, s := range sim.AllSchemes {
		t.Run(string(s), func(t *testing.T) {
			nd := snapDomains(s)
			m := sim.NewMachine(snapConfig(), s)
			snapDrivePrefix(t, m, nd)
			m.ResetStats()
			snap := m.Snapshot()
			before, err := sim.EncodeSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}

			snapDriveSuffix(m, nd)
			for d := core.DomainID(1); d <= core.DomainID(nd); d += 2 {
				m.Detach(d)
			}
			for d := core.DomainID(nd + 1); d <= core.DomainID(nd+3); d++ {
				if err := m.Attach(d, benchRegion(d), core.PermRW); err != nil {
					t.Fatal(err)
				}
				m.SetPerm(1, d, core.PermRW, 0)
				m.Access(1, benchRegion(d).Base, 8, true)
			}
			snapDriveSuffix(m, nd) // detached domains now fault
			if r := m.Result(); (s == sim.SchemeLibmpk || s == sim.SchemeMPKVirt) && r.Counters.Evictions == 0 {
				t.Fatal("the drive evicted no protection key")
			}

			after, err := sim.EncodeSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Error("driving the source machine changed its earlier snapshot's encoding")
			}
		})
	}
}

// TestSnapshotConcurrentRestores restores one snapshot into many
// machines concurrently (the grid-fork pattern); under -race this also
// proves Restore never writes into the shared snapshot.
func TestSnapshotConcurrentRestores(t *testing.T) {
	const workers = 8
	s := sim.SchemeDomainVirt
	nd := snapDomains(s)
	cfg := snapConfig()
	m := sim.NewMachine(cfg, s)
	snapDrivePrefix(t, m, nd)
	m.ResetStats()
	snap := m.Snapshot()

	snapDriveSuffix(m, nd)
	want := m.Result()

	var wg sync.WaitGroup
	results := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fork := sim.NewMachine(cfg, s)
			fork.Restore(snap)
			snapDriveSuffix(fork, nd)
			if got := fork.Result(); got != want {
				results[w] = errResultMismatch
			}
		}(w)
	}
	wg.Wait()
	for w, err := range results {
		if err != nil {
			t.Errorf("worker %d: result diverged from sequential", w)
		}
	}
}

var errResultMismatch = errMismatch{}

type errMismatch struct{}

func (errMismatch) Error() string { return "result mismatch" }

// TestSnapshotCostIndependence is the warmup-cache equivalence: a
// post-reset snapshot taken under one set of cost parameters seeds a
// machine running different cost parameters, and the fork's results
// must equal a from-scratch run under those costs. (State trajectory
// depends only on the event stream and structural geometry; latencies
// are pure accounting and zeroed by the reset.)
func TestSnapshotCostIndependence(t *testing.T) {
	for _, s := range []sim.Scheme{sim.SchemeLibmpk, sim.SchemeMPKVirt, sim.SchemeDomainVirt} {
		t.Run(string(s), func(t *testing.T) {
			nd := snapDomains(s)
			cfgA := snapConfig()
			cfgB := cfgA
			cfgB.Costs.TLBInval = 572
			cfgB.Costs.PTLBMiss = 60
			cfgB.Costs.DTTLBMiss = 60
			cfgB.Mem.NVMLatency = 720
			cfgB.FenceCost = 25

			// Snapshot taken under cfgA's costs...
			m := sim.NewMachine(cfgA, s)
			snapDrivePrefix(t, m, nd)
			m.ResetStats()
			snap := m.Snapshot()

			// ...seeds a cfgB machine.
			fork := sim.NewMachine(cfgB, s)
			fork.Restore(snap)
			snapDriveSuffix(fork, nd)
			got := fork.Result()

			// Reference: the full run under cfgB from scratch.
			ref := sim.NewMachine(cfgB, s)
			snapDrivePrefix(t, ref, nd)
			ref.ResetStats()
			snapDriveSuffix(ref, nd)
			want := ref.Result()

			if got != want {
				t.Errorf("cost-swapped fork differs from from-scratch run:\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
}

// TestSnapshotRestoreMismatchPanics pins the compatibility guards: a
// mismatch panics with the error RestoreSafe reports, not an index panic.
func TestSnapshotRestoreMismatchPanics(t *testing.T) {
	cfg := snapConfig()
	m := sim.NewMachine(cfg, sim.SchemeDomainVirt)
	snap := m.Snapshot()

	expectPanic := func(name string, fn func()) {
		defer func() {
			if _, ok := recover().(error); !ok {
				t.Errorf("%s: expected a panic with an error", name)
			}
		}()
		fn()
	}
	expectPanic("scheme mismatch", func() {
		sim.NewMachine(cfg, sim.SchemeMPK).Restore(snap)
	})
	badCores := cfg
	badCores.Cores = 4
	expectPanic("core-count mismatch", func() {
		sim.NewMachine(badCores, sim.SchemeDomainVirt).Restore(snap)
	})
}

// TestFaultsReturnsCopy is the regression test for the Faults aliasing
// fix: mutating or appending to the returned slice must not corrupt the
// machine's live fault window.
func TestFaultsReturnsCopy(t *testing.T) {
	m := sim.NewMachine(sim.DefaultConfig(), sim.SchemeDomainVirt)
	if err := m.Attach(1, benchRegion(1), core.PermRW); err != nil {
		t.Fatal(err)
	}
	// No grant: the first access faults.
	m.Access(1, benchRegion(1).Base, 8, false)
	got := m.Faults()
	if len(got) != 1 {
		t.Fatalf("expected 1 fault, got %d", len(got))
	}
	want := got[0]

	got[0].VA = 0xdead
	got = append(got, sim.FaultRecord{Thread: 99})
	_ = got

	again := m.Faults()
	if len(again) != 1 || again[0] != want {
		t.Errorf("machine fault record corrupted through returned slice: %v", again)
	}

	// A second denial must still append cleanly after the caller's append.
	m.Access(1, benchRegion(1).Base+8, 8, true)
	if n := len(m.Faults()); n != 2 {
		t.Errorf("expected 2 faults after second denial, got %d", n)
	}
}

// BenchmarkSnapshotRestore measures one Restore of a warmed machine's
// snapshot: the decode of its payload and the adoption of the decoded
// state, the per-cell cost a snapshot-served grid pays instead of
// re-simulating the warmup prefix.
func BenchmarkSnapshotRestore(b *testing.B) {
	for _, s := range []sim.Scheme{sim.SchemeMPKVirt, sim.SchemeDomainVirt} {
		b.Run(string(s), func(b *testing.B) {
			snap := benchMachine(b, s, 8, 16).Snapshot()
			fork := sim.NewMachine(sim.DefaultConfig(), s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fork.Restore(snap)
			}
		})
	}
}
