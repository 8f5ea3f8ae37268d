package core

import (
	"math/rand"
	"testing"

	"domainvirt/internal/memlayout"
	"domainvirt/internal/pagetable"
	"domainvirt/internal/stats"
)

// fakeHooks gives engines a page table and records shootdowns without a
// full machine.
type fakeHooks struct {
	cores   int
	pt      *pagetable.Table
	flushes []memlayout.Region
}

func newFakeHooks(cores int) *fakeHooks {
	return &fakeHooks{cores: cores, pt: pagetable.New()}
}

func (h *fakeHooks) NumCores() int { return h.cores }

func (h *fakeHooks) FlushTLBRangeAll(r memlayout.Region) int {
	h.flushes = append(h.flushes, r)
	return h.pt.PopulatedPages(r)
}

func (h *fakeHooks) PopulatedPages(r memlayout.Region) int { return h.pt.PopulatedPages(r) }

func (h *fakeHooks) SetPTEKeys(r memlayout.Region, key uint8) int { return h.pt.SetKey(r, key) }

// populate maps n pages at the start of region r.
func (h *fakeHooks) populate(r memlayout.Region, n int) {
	for i := 0; i < n; i++ {
		va := r.Base + memlayout.VA(i*memlayout.PageSize)
		h.pt.Map(va, memlayout.PA(va), true)
	}
}

func bindEngine(t *testing.T, e Engine, cores int) (*fakeHooks, *stats.Breakdown, *stats.Counters) {
	t.Helper()
	h := newFakeHooks(cores)
	bd := &stats.Breakdown{}
	ctr := &stats.Counters{}
	e.Bind(h, bd, ctr)
	e.ContextSwitch(0, 1)
	return h, bd, ctr
}

func regionFor(i int) memlayout.Region {
	return memlayout.Region{Base: memlayout.VA(0x2000_0000_0000 + uint64(i)<<21), Size: 2 << 20}
}

// access runs the full TLB-miss access path of an engine: FillTag then
// Check, as the simulator does.
func access(e Engine, coreID int, th ThreadID, va memlayout.VA, write bool) Verdict {
	tag, _ := e.FillTag(coreID, th, va)
	return e.Check(AccessCtx{Core: coreID, Thread: th, VA: va, Write: write, Tag: tag})
}

func allEngines(cores int) map[string]Engine {
	costs := DefaultCosts()
	return map[string]Engine{
		"mpk":        NewMPK(costs, cores),
		"libmpk":     NewLibmpk(costs, cores),
		"mpkvirt":    NewMPKVirt(costs, cores, 16),
		"domainvirt": NewDomainVirt(costs, cores, 16),
	}
}

func TestEnginesTemporalIsolation(t *testing.T) {
	// Figure 2(a): +R allows loads only; +W allows stores; -R -W denies.
	for name, e := range allEngines(1) {
		bindEngine(t, e, 1)
		r := regionFor(0)
		if err := e.Attach(1, r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		va := r.Base + 64

		if v := access(e, 0, 1, va, false); v.Allowed {
			t.Errorf("%s: load allowed before any permission", name)
		}
		e.SetPerm(0, 1, 1, PermR)
		if v := access(e, 0, 1, va, false); !v.Allowed {
			t.Errorf("%s: load denied after +R", name)
		}
		if v := access(e, 0, 1, va, true); v.Allowed {
			t.Errorf("%s: store allowed with only R", name)
		}
		e.SetPerm(0, 1, 1, PermRW)
		if v := access(e, 0, 1, va, true); !v.Allowed {
			t.Errorf("%s: store denied after +W", name)
		}
		e.SetPerm(0, 1, 1, PermNone)
		if v := access(e, 0, 1, va, false); v.Allowed {
			t.Errorf("%s: load allowed after -R -W", name)
		}
	}
}

func TestEnginesSpatialIsolation(t *testing.T) {
	// Figure 2(b): permissions are thread-specific.
	for name, e := range allEngines(2) {
		bindEngine(t, e, 2)
		e.ContextSwitch(1, 2)
		r := regionFor(0)
		if err := e.Attach(1, r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		va := r.Base + 128

		e.SetPerm(0, 1, 1, PermRW) // thread 1 (core 0) gets RW
		if v := access(e, 0, 1, va, true); !v.Allowed {
			t.Errorf("%s: owning thread denied", name)
		}
		// Thread 2 on core 1 never obtained permission.
		if v := access(e, 1, 2, va, false); v.Allowed {
			t.Errorf("%s: foreign thread load allowed", name)
		}
		if v := access(e, 1, 2, va, true); v.Allowed {
			t.Errorf("%s: foreign thread store allowed", name)
		}
		// Granting R to thread 2 allows loads but not stores.
		e.SetPerm(1, 2, 1, PermR)
		if v := access(e, 1, 2, va, false); !v.Allowed {
			t.Errorf("%s: thread 2 load denied after +R", name)
		}
		if v := access(e, 1, 2, va, true); v.Allowed {
			t.Errorf("%s: thread 2 store allowed with R", name)
		}
	}
}

func TestEnginesDomainlessAccess(t *testing.T) {
	for name, e := range allEngines(1) {
		bindEngine(t, e, 1)
		v := access(e, 0, 1, 0x1000, true)
		if !v.Allowed {
			t.Errorf("%s: domainless access denied", name)
		}
		if v.Cycles != 0 {
			t.Errorf("%s: domainless access charged %d cycles", name, v.Cycles)
		}
	}
}

func TestMPKDomainLimit(t *testing.T) {
	e := NewMPK(DefaultCosts(), 1)
	bindEngine(t, e, 1)
	for i := 0; i < 16; i++ {
		if err := e.Attach(DomainID(i+1), regionFor(i)); err != nil {
			t.Fatalf("attach %d: %v", i, err)
		}
	}
	if err := e.Attach(17, regionFor(16)); err == nil {
		t.Fatal("17th domain attached: the MPK wall is gone")
	}
	// Detaching frees a key for reuse.
	e.Detach(1)
	if err := e.Attach(17, regionFor(16)); err != nil {
		t.Fatalf("attach after detach: %v", err)
	}
}

func TestVirtualizedEnginesScalePast16(t *testing.T) {
	for _, name := range []string{"libmpk", "mpkvirt", "domainvirt"} {
		e := allEngines(1)[name]
		bindEngine(t, e, 1)
		for i := 0; i < 64; i++ {
			if err := e.Attach(DomainID(i+1), regionFor(i)); err != nil {
				t.Fatalf("%s: attach %d: %v", name, i, err)
			}
		}
		// All 64 domains usable by one thread.
		for i := 0; i < 64; i++ {
			e.SetPerm(0, 1, DomainID(i+1), PermRW)
			va := regionFor(i).Base
			if v := access(e, 0, 1, va, true); !v.Allowed {
				t.Errorf("%s: domain %d denied after grant", name, i+1)
			}
		}
	}
}

func TestLibmpkEvictionCosts(t *testing.T) {
	e := NewLibmpk(DefaultCosts(), 1)
	h, bd, ctr := bindEngine(t, e, 1)
	// 17 domains, 8 populated pages each.
	for i := 0; i < 17; i++ {
		r := regionFor(i)
		if err := e.Attach(DomainID(i+1), r); err != nil {
			t.Fatal(err)
		}
		h.populate(r, 8)
	}
	// Map in the first 16: no evictions, but PTE writes for each map-in.
	for i := 0; i < 16; i++ {
		e.SetPerm(0, 1, DomainID(i+1), PermRW)
	}
	if ctr.Evictions != 0 {
		t.Fatalf("evictions = %d before keys exhausted", ctr.Evictions)
	}
	pteBefore := bd.Counts[stats.CatPTEWrite]
	// The 17th forces an eviction: victim strip + incoming set = 16 PTEs.
	cost := e.SetPerm(0, 1, 17, PermRW)
	if ctr.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", ctr.Evictions)
	}
	if got := bd.Counts[stats.CatPTEWrite] - pteBefore; got != 16 {
		t.Errorf("PTE writes on eviction = %d, want 16 (8 victim + 8 incoming)", got)
	}
	if len(h.flushes) == 0 {
		t.Error("no TLB shootdown issued")
	}
	minCost := DefaultCosts().LibmpkSyscall*2 + 16*DefaultCosts().LibmpkPerPTE
	if cost < minCost {
		t.Errorf("eviction cost %d below floor %d", cost, minCost)
	}
}

func TestLibmpkFaultDrivenRemapOnRead(t *testing.T) {
	e := NewLibmpk(DefaultCosts(), 1)
	h, _, ctr := bindEngine(t, e, 1)
	for i := 0; i < 17; i++ {
		r := regionFor(i)
		if err := e.Attach(DomainID(i+1), r); err != nil {
			t.Fatal(err)
		}
		h.populate(r, 4)
		e.SetPerm(0, 1, DomainID(i+1), PermR) // register read perm
	}
	// Registering the 17th evicted domain 1 (LRU). A read to domain 1
	// must fault into the handler, remap, and then be allowed.
	evBefore := ctr.Evictions
	v := access(e, 0, 1, regionFor(0).Base, false)
	if !v.Allowed {
		t.Fatal("read denied despite registered R permission")
	}
	if v.Cycles < DefaultCosts().LibmpkTrap {
		t.Errorf("fault-driven remap cost %d below trap cost", v.Cycles)
	}
	if ctr.Evictions != evBefore+1 {
		t.Errorf("remap did not evict (evictions %d -> %d)", evBefore, ctr.Evictions)
	}
}

func TestMPKVirtKeyReuseAndShootdown(t *testing.T) {
	e := NewMPKVirt(DefaultCosts(), 1, 16)
	h, bd, ctr := bindEngine(t, e, 1)
	for i := 0; i < 17; i++ {
		if err := e.Attach(DomainID(i+1), regionFor(i)); err != nil {
			t.Fatal(err)
		}
		e.SetPerm(0, 1, DomainID(i+1), PermRW)
	}
	// Touch 16 domains: keys assigned, no evictions.
	for i := 0; i < 16; i++ {
		if v := access(e, 0, 1, regionFor(i).Base, true); !v.Allowed {
			t.Fatalf("domain %d denied", i+1)
		}
	}
	if ctr.Evictions != 0 {
		t.Fatalf("evictions = %d with 16 domains", ctr.Evictions)
	}
	if len(h.flushes) != 0 {
		t.Fatalf("shootdowns issued without eviction: %v", h.flushes)
	}
	// The 17th domain evicts a victim and shoots down its range.
	if v := access(e, 0, 1, regionFor(16).Base, true); !v.Allowed {
		t.Fatal("17th domain denied")
	}
	if ctr.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", ctr.Evictions)
	}
	if len(h.flushes) != 1 {
		t.Fatalf("shootdowns = %d, want 1", len(h.flushes))
	}
	if bd.Cycles[stats.CatTLBInval] < DefaultCosts().TLBInval {
		t.Errorf("TLB invalidation cycles = %d", bd.Cycles[stats.CatTLBInval])
	}
	// The victim's region was the one flushed.
	victimFound := false
	for i := 0; i < 16; i++ {
		if h.flushes[0] == regionFor(i) {
			victimFound = true
		}
	}
	if !victimFound {
		t.Errorf("flushed region %v is not a victim domain", h.flushes[0])
	}
	// The evicted domain's key was reassigned; it no longer has one.
	withKeys := 0
	for i := 0; i < 17; i++ {
		if _, ok := e.KeyOf(DomainID(i + 1)); ok {
			withKeys++
		}
	}
	if withKeys != 16 {
		t.Errorf("domains holding keys = %d, want 16", withKeys)
	}
}

func TestMPKVirtDTTLBCounting(t *testing.T) {
	e := NewMPKVirt(DefaultCosts(), 1, 16)
	_, _, ctr := bindEngine(t, e, 1)
	if err := e.Attach(1, regionFor(0)); err != nil {
		t.Fatal(err)
	}
	e.SetPerm(0, 1, 1, PermRW)
	va := regionFor(0).Base
	access(e, 0, 1, va, true) // first: DTTLB miss
	access(e, 0, 1, va, true) // second: DTTLB hit
	if ctr.DTTLBMisses != 1 || ctr.DTTLBHits != 1 {
		t.Errorf("DTTLB hits/misses = %d/%d, want 1/1", ctr.DTTLBHits, ctr.DTTLBMisses)
	}
}

func TestDomainVirtNoShootdowns(t *testing.T) {
	e := NewDomainVirt(DefaultCosts(), 1, 16)
	h, _, ctr := bindEngine(t, e, 1)
	for i := 0; i < 64; i++ {
		if err := e.Attach(DomainID(i+1), regionFor(i)); err != nil {
			t.Fatal(err)
		}
		e.SetPerm(0, 1, DomainID(i+1), PermRW)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 64; i++ {
			if v := access(e, 0, 1, regionFor(i).Base, true); !v.Allowed {
				t.Fatalf("domain %d denied", i+1)
			}
		}
	}
	if len(h.flushes) != 0 {
		t.Errorf("domain virtualization issued %d shootdowns; the design requires zero", len(h.flushes))
	}
	if ctr.PTLBMisses == 0 {
		t.Error("expected PTLB misses with 64 domains over 16 entries")
	}
}

func TestDomainVirtPTLBHitCost(t *testing.T) {
	e := NewDomainVirt(DefaultCosts(), 1, 16)
	bindEngine(t, e, 1)
	if err := e.Attach(1, regionFor(0)); err != nil {
		t.Fatal(err)
	}
	e.SetPerm(0, 1, 1, PermRW)
	va := regionFor(0).Base
	access(e, 0, 1, va, true)
	v := access(e, 0, 1, va, true)
	if v.Cycles != DefaultCosts().PTLBAccess {
		t.Errorf("PTLB-hit access cost = %d, want %d", v.Cycles, DefaultCosts().PTLBAccess)
	}
}

func TestDomainVirtContextSwitchKeepsTLB(t *testing.T) {
	// Context switches flush the PTLB but the engine must never request
	// TLB flushes.
	e := NewDomainVirt(DefaultCosts(), 1, 16)
	h, _, _ := bindEngine(t, e, 1)
	if err := e.Attach(1, regionFor(0)); err != nil {
		t.Fatal(err)
	}
	e.SetPerm(0, 1, 1, PermRW)
	access(e, 0, 1, regionFor(0).Base, true)
	e.ContextSwitch(0, 2)
	if len(h.flushes) != 0 {
		t.Error("context switch triggered TLB flushes")
	}
	// Thread 2 has no permission: denied even though the TLB would hit.
	if v := access(e, 0, 2, regionFor(0).Base, false); v.Allowed {
		t.Error("thread 2 inherited thread 1's permission across a switch")
	}
}

// TestProtectionEquivalence replays a random trace of attach/setperm/
// access operations through every engine and demands identical verdicts:
// the schemes differ in cost, never in policy.
func TestProtectionEquivalence(t *testing.T) {
	const domains = 40
	rng := rand.New(rand.NewSource(99))
	type op struct {
		kind  int // 0 setperm, 1 access
		th    ThreadID
		d     int
		perm  Perm
		write bool
		off   uint64
	}
	var ops []op
	for i := 0; i < 4000; i++ {
		o := op{
			kind:  rng.Intn(2),
			th:    ThreadID(1 + rng.Intn(2)),
			d:     rng.Intn(domains),
			perm:  []Perm{PermRW, PermR, PermNone}[rng.Intn(3)],
			write: rng.Intn(2) == 0,
			off:   uint64(rng.Intn(1 << 20)),
		}
		ops = append(ops, o)
	}

	engines := map[string]Engine{
		"libmpk":     NewLibmpk(DefaultCosts(), 2),
		"mpkvirt":    NewMPKVirt(DefaultCosts(), 2, 16),
		"domainvirt": NewDomainVirt(DefaultCosts(), 2, 16),
	}
	verdicts := make(map[string][]bool)
	for name, e := range engines {
		h := newFakeHooks(2)
		e.Bind(h, &stats.Breakdown{}, &stats.Counters{})
		e.ContextSwitch(0, 1)
		e.ContextSwitch(1, 2)
		for i := 0; i < domains; i++ {
			r := regionFor(i)
			if err := e.Attach(DomainID(i+1), r); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			h.populate(r, 4)
		}
		for _, o := range ops {
			coreID := int(o.th) - 1
			if o.kind == 0 {
				e.SetPerm(coreID, o.th, DomainID(o.d+1), o.perm)
			} else {
				va := regionFor(o.d).Base + memlayout.VA(o.off)
				v := access(e, coreID, o.th, va, o.write)
				verdicts[name] = append(verdicts[name], v.Allowed)
			}
		}
	}
	ref := verdicts["domainvirt"]
	for name, vs := range verdicts {
		if len(vs) != len(ref) {
			t.Fatalf("%s: %d verdicts vs %d", name, len(vs), len(ref))
		}
		for i := range vs {
			if vs[i] != ref[i] {
				t.Fatalf("%s disagrees with domainvirt at access %d: %v vs %v", name, i, vs[i], ref[i])
			}
		}
	}
}

// TestMPKVirtRestoreRejectsShortDirtyBits: on disk a DTTLB's slots and
// dirty bits carry separate counts, so a decoded snapshot can pair full
// slots with short dirty bits. RestoreState must refuse it rather than
// take the short dirty bits over and index past their end later.
func TestMPKVirtRestoreRejectsShortDirtyBits(t *testing.T) {
	e := NewMPKVirt(DefaultCosts(), 2, 16)
	bindEngine(t, e, 2)
	for i := 0; i < 4; i++ {
		if err := e.Attach(DomainID(i+1), regionFor(i)); err != nil {
			t.Fatal(err)
		}
		e.SetPerm(0, 1, DomainID(i+1), PermRW)
		access(e, 0, 1, regionFor(i).Base, true)
	}
	st := e.SnapshotState()
	s := st.st.(*mpkvirtState)
	s.dttlbs[0].dirty = s.dttlbs[0].dirty[:3]
	fresh := NewMPKVirt(DefaultCosts(), 2, 16)
	bindEngine(t, fresh, 2)
	if err := fresh.RestoreState(st); err == nil {
		t.Error("RestoreState accepted a short dirty-bit slice")
	}
}
