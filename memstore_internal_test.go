package domainvirt

import (
	"slices"
	"strconv"
	"sync"
	"testing"
)

// TestMemStoreEvictsOldest: a Put past the budget evicts the oldest
// entries of either store first, a Get does not refresh an entry, a
// re-Put replaces an entry's bytes, a blob larger than the whole budget
// is refused, and the two stores keep their keys apart.
func TestMemStoreEvictsOldest(t *testing.T) {
	snaps, traces := newMemStores(10)
	held := func() (keys []string) {
		for e := snaps.order.Front(); e != nil; e = e.Next() {
			keys = append(keys, e.Value.(memEntry).key)
		}
		return keys
	}
	put := func(s memStore, key string, n int) {
		t.Helper()
		if err := s.Put(key, make([]byte, n)); err != nil {
			t.Fatalf("Put(%q, %d bytes): %v", key, n, err)
		}
	}
	put(snaps, "a", 4)
	put(traces, "a", 4)
	if !snaps.Has("a") || !traces.Has("a") || traces.Has("b") {
		t.Fatalf("stores hold %v", held())
	}
	put(snaps, "c", 4) // the checkpoint a goes
	if _, err := traces.Get("a"); err != nil {
		t.Fatal(err)
	}
	put(snaps, "d", 6) // the trace a goes, though it was read after the checkpoint
	if got := held(); !slices.Equal(got, []string{"c.pmosnap", "d.pmosnap"}) || snaps.size != 10 {
		t.Fatalf("stores hold %v in %d bytes, want [c d] in 10", got, snaps.size)
	}
	put(snaps, "c", 1) // replaced, and now the newest
	put(traces, "e", 3)
	if got := held(); !slices.Equal(got, []string{"d.pmosnap", "c.pmosnap", "e.pmotrace"}) || snaps.size != 10 {
		t.Fatalf("stores hold %v in %d bytes, want [d c e] in 10", got, snaps.size)
	}
	if err := traces.Put("f", make([]byte, 11)); err == nil {
		t.Error("a blob past the whole budget was stored")
	}
	if err := traces.Delete("d"); err != nil || !snaps.Has("d") {
		t.Error("a trace Delete removed the checkpoint of the same key")
	}
	if err := snaps.Delete("d"); err != nil || snaps.Has("d") || snaps.size != 4 {
		t.Errorf("Delete left %v in %d bytes", held(), snaps.size)
	}
}

// TestMemoryCacheOverBudget overfills a memory cache whose budget holds
// one cell's checkpoint and trace but not two cells': every cell still
// equals Run, an evicted checkpoint is simulated again and an evicted
// trace recorded again, and only the newest cell's bytes stay.
func TestMemoryCacheOverBudget(t *testing.T) {
	cfg := DefaultConfig()
	seeds := []int64{5, 6}
	params := func(seed int64) Params { return Params{NumPMOs: 4, InitialElems: 32, Ops: 60, Seed: seed} }
	want := make(map[int64]Result)
	for _, seed := range seeds {
		res, err := Run("avl", params(seed), SchemeDomainVirt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = res
	}

	// Size the budget from a cache that holds everything.
	roomy := NewSnapshotCache()
	budget := 0
	for _, seed := range seeds {
		p := params(seed)
		if _, _, err := RunCached("avl", p, SchemeDomainVirt, cfg, roomy); err != nil {
			t.Fatal(err)
		}
		snap, err1 := roomy.snaps.Get(SnapshotKeyFor("avl", p, SchemeDomainVirt, cfg))
		tr, err2 := roomy.traces.Get(traceKey("avl", p))
		if err1 != nil || err2 != nil {
			t.Fatal("the roomy cache did not store a checkpoint and a trace per cell")
		}
		budget = max(budget, len(snap)+len(tr))
	}

	snaps, traces := newMemStores(budget)
	cache := &SnapshotCache{snaps: snaps, traces: traces, decoded: make(map[string]uint32)}
	for round := 0; round < 2; round++ {
		for _, seed := range seeds {
			got, hit, err := RunCached("avl", params(seed), SchemeDomainVirt, cfg, cache)
			if err != nil {
				t.Fatal(err)
			}
			if hit {
				t.Errorf("round %d, seed %d: hit a checkpoint the budget cannot hold beside the other cell's", round, seed)
			}
			if got != want[seed] {
				t.Errorf("round %d, seed %d: a cell over budget differs from Run", round, seed)
			}
			if snaps.size > budget {
				t.Errorf("the stores hold %d bytes, past the %d budget", snaps.size, budget)
			}
		}
	}
	if st := cache.Stats(); st.Warmups != 4 {
		t.Errorf("warmups = %d, want 4: every checkpoint rebuilt after its eviction", st.Warmups)
	}
	if replayed, recorded := cache.TraceStats(); replayed != 0 || recorded != 4 {
		t.Errorf("traces replayed %d, recorded %d; want 0 and 4", replayed, recorded)
	}
	last := params(seeds[len(seeds)-1])
	if len(snaps.m) != 2 || !snaps.Has(SnapshotKeyFor("avl", last, SchemeDomainVirt, cfg)) || !traces.Has(traceKey("avl", last)) {
		t.Error("the stores do not hold only the newest cell's checkpoint and trace")
	}
}

// TestMemStoreConcurrent puts, gets and deletes from several goroutines
// on both stores of one small budget, for the race detector, and checks
// that the byte count still matches the entries held.
func TestMemStoreConcurrent(t *testing.T) {
	snaps, traces := newMemStores(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s, key := snaps, strconv.Itoa((g*7+i)%13)
				if i%2 == 1 {
					s = traces
				}
				switch i % 5 {
				case 0, 1, 2:
					if err := s.Put(key, make([]byte, 1+i%9)); err != nil {
						t.Error(err)
						return
					}
				case 3:
					s.Get(key)
				case 4:
					s.Delete(key)
				}
			}
		}()
	}
	wg.Wait()
	sum := 0
	for e := snaps.order.Front(); e != nil; e = e.Next() {
		sum += len(e.Value.(memEntry).data)
	}
	if sum != snaps.size || snaps.size > snaps.budget || len(snaps.m) != snaps.order.Len() {
		t.Errorf("size %d, entries hold %d bytes in %d map keys and %d list entries, budget %d",
			snaps.size, sum, len(snaps.m), snaps.order.Len(), snaps.budget)
	}
}
