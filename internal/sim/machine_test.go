package sim

import (
	"testing"

	"domainvirt/internal/core"
	"domainvirt/internal/memlayout"
	"domainvirt/internal/stats"
)

func newTestMachine(scheme Scheme) *Machine {
	return NewMachine(DefaultConfig(), scheme)
}

func TestInstrCPI(t *testing.T) {
	m := newTestMachine(SchemeBaseline)
	m.Instr(1, 1000)
	res := m.Result()
	if res.Cycles != 250 { // 4-way issue: CPI 0.25
		t.Errorf("1000 instructions = %d cycles, want 250", res.Cycles)
	}
	// Fractional remainders carry across calls.
	m2 := newTestMachine(SchemeBaseline)
	for i := 0; i < 1000; i++ {
		m2.Instr(1, 1)
	}
	if got := m2.Result().Cycles; got != 250 {
		t.Errorf("1x1000 instructions = %d cycles, want 250", got)
	}
}

func TestAccessLatencyComposition(t *testing.T) {
	m := newTestMachine(SchemeBaseline)
	va := memlayout.VA(0x10000)
	m.Access(1, va, 8, false)
	res := m.Result()
	// Cold access: L1 TLB (1) + L2 TLB (4) + walk (30) + L1D (1) +
	// L2 (8) + DRAM (120) = 164.
	if res.Cycles != 164 {
		t.Errorf("cold access = %d cycles, want 164", res.Cycles)
	}
	if res.Counters.TLBMisses != 1 || res.Counters.Loads != 1 {
		t.Errorf("counters = %+v", res.Counters)
	}
	m.ResetStats()
	m.Access(1, va, 8, false)
	res = m.Result()
	// Warm access: L1 TLB (1) + L1D (1).
	if res.Cycles != 2 {
		t.Errorf("warm access = %d cycles, want 2", res.Cycles)
	}
}

func TestAccessSplitsCacheLines(t *testing.T) {
	m := newTestMachine(SchemeBaseline)
	m.Access(1, 0x10000, 128, true) // two 64-byte lines
	res := m.Result()
	if res.Counters.Stores != 2 {
		t.Errorf("stores = %d, want 2 (line split)", res.Counters.Stores)
	}
}

func TestDemandMapKinds(t *testing.T) {
	m := newTestMachine(SchemeBaseline)
	pmoRegion := memlayout.Region{Base: 0x2000_0000_0000, Size: 2 << 20}
	if err := m.Attach(1, pmoRegion, core.PermRW); err != nil {
		t.Fatal(err)
	}
	m.Access(1, pmoRegion.Base, 8, false) // PMO: NVM
	m.Access(1, 0x5000, 8, false)         // heap: DRAM
	res := m.Result()
	if res.Counters.NVMReads != 1 {
		t.Errorf("NVM reads = %d, want 1", res.Counters.NVMReads)
	}
	if res.Counters.MemReads != 2 {
		t.Errorf("memory reads = %d, want 2", res.Counters.MemReads)
	}
}

func TestPagePermissionEnforced(t *testing.T) {
	m := newTestMachine(SchemeBaseline)
	r := memlayout.Region{Base: 0x2000_0000_0000, Size: 2 << 20}
	if err := m.Attach(1, r, core.PermR); err != nil { // read-only attach
		t.Fatal(err)
	}
	m.Access(1, r.Base, 8, false)
	if got := m.Result().Counters.PageFaults; got != 0 {
		t.Fatalf("read faulted: %d", got)
	}
	m.Access(1, r.Base, 8, true)
	res := m.Result()
	if res.Counters.PageFaults != 1 {
		t.Errorf("store to read-only attach not page-faulted: %+v", res.Counters)
	}
	if len(m.Faults()) != 1 || !m.Faults()[0].Page {
		t.Errorf("fault record = %+v", m.Faults())
	}
}

func TestDomainFaultRecorded(t *testing.T) {
	m := newTestMachine(SchemeDomainVirt)
	r := memlayout.Region{Base: 0x2000_0000_0000, Size: 2 << 20}
	if err := m.Attach(7, r, core.PermRW); err != nil {
		t.Fatal(err)
	}
	// No SETPERM: the domain denies everything.
	m.Access(1, r.Base, 8, false)
	res := m.Result()
	if res.Counters.DomainFaults != 1 {
		t.Fatalf("domain fault not raised: %+v", res.Counters)
	}
	f := m.Faults()[0]
	if f.Domain != 7 || f.Page {
		t.Errorf("fault record = %+v", f)
	}
}

func TestInvalidationDebtAttribution(t *testing.T) {
	cfg := DefaultConfig()
	m := NewMachine(cfg, SchemeMPKVirt)
	// 17 domains so one access pattern forces an eviction.
	regions := make([]memlayout.Region, 17)
	for i := range regions {
		regions[i] = memlayout.Region{
			Base: memlayout.VA(0x2000_0000_0000 + uint64(i)<<21),
			Size: 2 << 20,
		}
		if err := m.Attach(core.DomainID(i+1), regions[i], core.PermRW); err != nil {
			t.Fatal(err)
		}
		m.SetPerm(1, core.DomainID(i+1), core.PermRW, 1)
	}
	// Touch 16 domains (all keys assigned), then the 17th evicts one.
	// Offsets are staggered by one page per domain so the 2 MB-aligned
	// region bases do not all alias into one TLB set.
	touch := func(i int) memlayout.VA {
		return regions[i].Base + memlayout.VA(i)*memlayout.PageSize
	}
	for i := 0; i < 17; i++ {
		m.Access(1, touch(i), 8, false)
	}
	res := m.Result()
	if res.Counters.Evictions == 0 {
		t.Fatal("no eviction with 17 domains")
	}
	if res.Counters.TLBFlushed == 0 {
		t.Fatal("eviction flushed nothing")
	}
	inval := res.Breakdown.Cycles[stats.CatTLBInval]
	if inval < cfg.Costs.TLBInval {
		t.Errorf("invalidation cycles = %d", inval)
	}
	// Re-touch everything: the flushed victim page re-walks, and that
	// walk must be charged to the invalidation category (debt).
	m.ResetStats()
	for i := 0; i < 17; i++ {
		m.Access(1, touch(i), 8, false)
	}
	res = m.Result()
	if res.Counters.DebtRefills == 0 {
		t.Error("no refill was attributed to TLB invalidation")
	}
}

// TestAttachEmptyRegionFlushesNothing pins the shootdown of an empty
// region: attaching a zero-size region at VA 0 (the domain table accepts
// it) must flush no TLB entry, so the pages warmed before it still hit.
func TestAttachEmptyRegionFlushesNothing(t *testing.T) {
	for _, s := range AllSchemes {
		t.Run(string(s), func(t *testing.T) {
			m := newTestMachine(s)
			r := memlayout.Region{Base: 0x40000000, Size: 8 << 20}
			if err := m.Attach(1, r, core.PermRW); err != nil {
				t.Fatal(err)
			}
			m.SetPerm(1, 1, core.PermRW, 0)
			touch := func() {
				for p := 0; p < 64; p++ {
					m.Access(1, r.Base+memlayout.VA(p*memlayout.PageSize), 8, false)
				}
			}
			touch()
			m.ResetStats()
			if err := m.Attach(2, memlayout.Region{}, core.PermRW); err != nil {
				t.Fatalf("empty attach: %v", err)
			}
			if n := m.Result().Counters.TLBFlushed; n != 0 {
				t.Errorf("empty attach flushed %d TLB entries, want 0", n)
			}
			touch()
			c := m.Result().Counters
			if c.TLBMisses != 0 || c.TLBL1Hits+c.TLBL2Hits != 64 {
				t.Errorf("after empty attach: %d TLB misses, %d hits; want 0 and 64",
					c.TLBMisses, c.TLBL1Hits+c.TLBL2Hits)
			}
		})
	}
}

func TestContextSwitchAccounting(t *testing.T) {
	cfg := DefaultConfig()
	m := NewMachine(cfg, SchemeBaseline)
	m.Instr(1, 100) // thread 1 on core 0
	m.Instr(2, 100) // thread 2 on the same core: a context switch
	res := m.Result()
	if res.Counters.ContextSwitches != 1 {
		t.Errorf("context switches = %d, want 1", res.Counters.ContextSwitches)
	}
	if res.Cycles < cfg.CtxSwitchCost {
		t.Errorf("switch cost not charged: %d", res.Cycles)
	}
}

func TestMultiCorePlacement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	m := NewMachine(cfg, SchemeBaseline)
	m.Instr(1, 400) // core 0
	m.Instr(2, 800) // core 1
	res := m.Result()
	if res.Counters.ContextSwitches != 0 {
		t.Errorf("cross-core placement caused %d switches", res.Counters.ContextSwitches)
	}
	if res.Cycles != 200 { // max(100, 200)
		t.Errorf("Cycles = %d, want max across cores 200", res.Cycles)
	}
	if res.WorkSum != 300 {
		t.Errorf("WorkSum = %d, want 300", res.WorkSum)
	}
}

func TestResetStatsKeepsWarmState(t *testing.T) {
	m := newTestMachine(SchemeBaseline)
	va := memlayout.VA(0x30000)
	m.Access(1, va, 8, false)
	m.ResetStats()
	m.Access(1, va, 8, false)
	res := m.Result()
	if res.Counters.TLBMisses != 0 {
		t.Error("ResetStats lost TLB state")
	}
	if res.Counters.L1DHits != 1 {
		t.Error("ResetStats lost cache state")
	}
}

func TestInspectorBlocksForeignSetPerm(t *testing.T) {
	m := newTestMachine(SchemeDomainVirt)
	in := core.NewInspector()
	in.Approve(1, "legit")
	m.SetInspector(in)
	r := memlayout.Region{Base: 0x2000_0000_0000, Size: 2 << 20}
	if err := m.Attach(1, r, core.PermRW); err != nil {
		t.Fatal(err)
	}
	m.SetPerm(1, 1, core.PermRW, 99) // attacker gadget site
	m.Access(1, r.Base, 8, true)
	res := m.Result()
	if res.Counters.DomainFaults < 2 { // blocked SETPERM + denied access
		t.Errorf("gadget SETPERM not blocked: %+v", res.Counters)
	}
	if len(in.Violations()) != 1 {
		t.Errorf("violations = %d", len(in.Violations()))
	}
	// The legitimate site works.
	m.SetPerm(1, 1, core.PermRW, 1)
	m.Access(1, r.Base+64, 8, true)
	if got := m.Result().Counters.DomainFaults; got != res.Counters.DomainFaults {
		t.Error("legitimate SETPERM did not take effect")
	}
}

func TestFenceCost(t *testing.T) {
	cfg := DefaultConfig()
	m := NewMachine(cfg, SchemeBaseline)
	m.Fence(1)
	if got := m.Result().Cycles; got != cfg.FenceCost {
		t.Errorf("fence = %d cycles, want %d", got, cfg.FenceCost)
	}
}

func TestBaselineIgnoresSetPerm(t *testing.T) {
	m := newTestMachine(SchemeBaseline)
	r := memlayout.Region{Base: 0x2000_0000_0000, Size: 2 << 20}
	if err := m.Attach(1, r, core.PermRW); err != nil {
		t.Fatal(err)
	}
	m.SetPerm(1, 1, core.PermRW, 1)
	res := m.Result()
	if res.Cycles != 0 || res.Counters.PermSwitches != 0 {
		t.Errorf("baseline charged for SETPERM: %+v", res)
	}
}

func TestLowerboundChargesExactly27(t *testing.T) {
	cfg := DefaultConfig()
	m := NewMachine(cfg, SchemeLowerbound)
	r := memlayout.Region{Base: 0x2000_0000_0000, Size: 2 << 20}
	if err := m.Attach(1, r, core.PermRW); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		m.SetPerm(1, 1, core.PermRW, 1)
	}
	res := m.Result()
	if res.Cycles != 10*cfg.Costs.WRPKRU {
		t.Errorf("lowerbound = %d cycles, want %d", res.Cycles, 10*cfg.Costs.WRPKRU)
	}
}
