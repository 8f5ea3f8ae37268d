package cache

import (
	"testing"

	"domainvirt/internal/mem"
	"domainvirt/internal/memlayout"
)

func testMem() *mem.Memory { return mem.New(mem.DefaultConfig()) }

func smallHierarchy(cores int) *Hierarchy {
	return NewHierarchy(cores,
		Config{SizeBytes: 1 << 10, Ways: 2, Latency: 1},
		Config{SizeBytes: 8 << 10, Ways: 4, Latency: 8},
		testMem())
}

func TestCacheFillTouch(t *testing.T) {
	c := New(Config{SizeBytes: 1 << 10, Ways: 2, Latency: 1})
	if _, hit := c.Touch(42); hit {
		t.Fatal("cold cache hit")
	}
	c.Fill(42, Shared)
	if st, hit := c.Touch(42); !hit || st != Shared {
		t.Fatalf("Touch = (%v,%v)", st, hit)
	}
	h, m := c.Stats()
	if h != 1 || m != 1 {
		t.Errorf("stats = (%d,%d), want (1,1)", h, m)
	}
}

func TestCacheEvictionDirty(t *testing.T) {
	// 1KB, 2-way, 64B blocks => 8 sets. Blocks with the same low 3 bits
	// collide.
	c := New(Config{SizeBytes: 1 << 10, Ways: 2, Latency: 1})
	c.Fill(0x00, Modified)
	c.Fill(0x08, Shared)
	v, dirty, ev := c.Fill(0x10, Exclusive)
	if !ev || v != 0x00 || !dirty {
		t.Errorf("Fill eviction = (%#x,%v,%v), want dirty 0x00", v, dirty, ev)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := smallHierarchy(1)
	pa := memlayout.PA(0x1000)
	lat, lvl := h.Access(0, pa, false)
	if lvl != LevelMem {
		t.Fatalf("first access level = %v, want memory", lvl)
	}
	if lat != 1+8+120 { // L1 + L2 + DRAM
		t.Errorf("miss latency = %d, want 129", lat)
	}
	lat, lvl = h.Access(0, pa, false)
	if lvl != LevelL1 || lat != 1 {
		t.Errorf("second access = (%d,%v), want (1,L1)", lat, lvl)
	}
}

func TestHierarchyNVMLatency(t *testing.T) {
	h := smallHierarchy(1)
	nvmPA := memlayout.PA(2) << 40 // above the NVM split
	lat, _ := h.Access(0, nvmPA, false)
	if lat != 1+8+360 {
		t.Errorf("NVM miss latency = %d, want 369", lat)
	}
}

func TestMESIWriteInvalidatesSharers(t *testing.T) {
	h := smallHierarchy(2)
	pa := memlayout.PA(0x2000)
	h.Access(0, pa, false) // core 0 shares
	h.Access(1, pa, false) // core 1 shares
	h.Access(0, pa, true)  // core 0 writes: must invalidate core 1
	_, _, _, _, invals, _ := h.Stats()
	if invals == 0 {
		t.Fatal("write to shared block caused no remote invalidation")
	}
	// Core 1's next read misses its L1 (it was invalidated).
	_, lvl := h.Access(1, pa, false)
	if lvl == LevelL1 {
		t.Error("core 1 hit L1 after invalidation")
	}
}

func TestMESIDirtyForwarding(t *testing.T) {
	h := smallHierarchy(2)
	pa := memlayout.PA(0x3000)
	h.Access(0, pa, true) // core 0 holds Modified
	_, lvl := h.Access(1, pa, false)
	if lvl == LevelMem {
		t.Error("read of remote-dirty block went to memory instead of forwarding")
	}
	_, _, _, _, _, fwds := h.Stats()
	if fwds != 1 {
		t.Errorf("dirty forwards = %d, want 1", fwds)
	}
}

func TestMESIWriteAfterWrite(t *testing.T) {
	h := smallHierarchy(2)
	pa := memlayout.PA(0x4000)
	h.Access(0, pa, true)
	h.Access(1, pa, true) // ownership must migrate
	// Core 0 re-reads: must not hit a stale Modified line.
	_, lvl := h.Access(0, pa, false)
	if lvl == LevelL1 {
		t.Error("core 0 L1 hit on a line core 1 now owns")
	}
}

func TestSingleWriterInvariant(t *testing.T) {
	// After any interleaving, at most one L1 holds a block in Modified.
	h := smallHierarchy(4)
	pa := memlayout.PA(0x5000)
	pattern := []struct {
		core  int
		write bool
	}{{0, true}, {1, false}, {2, true}, {3, true}, {1, true}, {0, false}}
	for _, s := range pattern {
		h.Access(s.core, pa, s.write)
		owners := 0
		for c := 0; c < 4; c++ {
			if st, ok := h.l1[c].Probe(BlockOf(pa)); ok && st == Modified {
				owners++
			}
		}
		if owners > 1 {
			t.Fatalf("%d simultaneous Modified owners after %+v", owners, s)
		}
	}
}

// TestRestoreRejectsShortPairedSlices: on disk every slice of a snapshot
// carries its own count, so a decoded snapshot can pair a full slice
// with a short one. Adopt must refuse it, not take the short slice over
// and index past its end later.
func TestRestoreRejectsShortPairedSlices(t *testing.T) {
	h := smallHierarchy(2)
	for i := 0; i < 200; i++ {
		h.Access(i%2, memlayout.PA(i*64), i%3 == 0)
	}
	for name, cut := range map[string]func(*HierarchyState){
		"L1 lru":  func(s *HierarchyState) { s.l1[1].lru = s.l1[1].lru[:len(s.l1[1].lru)-1] },
		"L2 lru":  func(s *HierarchyState) { s.l2.lru = s.l2.lru[:1] },
		"lastPos": func(s *HierarchyState) { s.lastPos = s.lastPos[:1] },
		"L1":      func(s *HierarchyState) { s.l1[0] = nil },
	} {
		s := h.Stored()
		cut(s)
		if err := smallHierarchy(2).Adopt(s); err == nil {
			t.Errorf("%s: Adopt accepted a short slice", name)
		}
	}
}
