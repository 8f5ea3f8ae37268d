package sim

import (
	"cmp"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"domainvirt/internal/core"
	"domainvirt/internal/memlayout"
)

// spanSlotBase is the start of the VA window the span-index test attaches
// into: a 2 MiB-aligned run of slots, far from the code and heap ranges.
const spanSlotBase = memlayout.VA(0x4000_0000_0000)

// spanSlots is the number of 2 MiB slots in the window; random attaches
// land on them, so overlaps are frequent.
const spanSlots = 48

// spanRegion returns a random, level-aligned attach region in the window:
// a sub-page object, a two-page object that ends mid-page, a 2 MiB slot
// or an 8 MiB run of four slots.
func spanRegion(rng *rand.Rand) memlayout.Region {
	slot := spanSlotBase + memlayout.VA(rng.Intn(spanSlots-4))<<21
	switch rng.Intn(4) {
	case 0:
		return memlayout.Region{Base: slot + memlayout.VA(rng.Intn(512))*memlayout.PageSize, Size: 64}
	case 1:
		return memlayout.Region{Base: slot + memlayout.VA(rng.Intn(510))*memlayout.PageSize, Size: 5000}
	case 2:
		return memlayout.Region{Base: slot, Size: 2 << 20}
	}
	return memlayout.Region{Base: slot, Size: 8 << 20}
}

// attachedRegion is the test's own model of one attachment.
type attachedRegion struct {
	r    memlayout.Region
	perm core.Perm
}

// checkSpanIndex compares the machine's attach bookkeeping with the
// model: the domain map must hold exactly the modelled attachments, the
// span index must equal a sorted rebuild of the domain map, and demandMap
// must classify probe addresses as a linear scan over the model would.
func checkSpanIndex(t *testing.T, m *Machine, model map[core.DomainID]attachedRegion, rng *rand.Rand, step string) {
	t.Helper()
	if len(m.domains) != len(model) {
		t.Fatalf("%s: machine holds %d domains, model %d", step, len(m.domains), len(model))
	}
	for d, a := range model {
		if di, ok := m.domains[d]; !ok || di.region != a.r || di.perm != a.perm {
			t.Fatalf("%s: domain %d is %+v in the machine, %+v in the model", step, d, di, a)
		}
	}
	var want []domSpan
	for _, di := range m.domains {
		want = append(want, domSpan{base: di.region.Base, end: di.region.End(), writable: di.perm.CanWrite()})
	}
	slices.SortFunc(want, func(a, b domSpan) int { return cmp.Compare(a.base, b.base) })
	if !slices.Equal(m.spans, want) {
		t.Fatalf("%s: span index\n got: %v\nwant: %v", step, m.spans, want)
	}

	probes := []memlayout.VA{spanSlotBase - 1, spanSlotBase + memlayout.VA(spanSlots)<<21}
	for _, a := range model {
		probes = append(probes, a.r.Base-1, a.r.Base, a.r.End()-1, a.r.End())
	}
	for i := 0; i < 8; i++ {
		probes = append(probes, spanSlotBase+memlayout.VA(rng.Int63n(int64(spanSlots)<<21)))
	}
	for _, va := range probes {
		wantNVM, wantW := false, true
		for _, a := range model {
			if a.r.Base <= va && va < a.r.End() {
				wantNVM, wantW = true, a.perm.CanWrite()
			}
		}
		pte := m.demandMap(va)
		gotNVM := memlayout.PA(pte.PFN<<memlayout.PageShift) >= m.cfg.Mem.NVMBase
		if gotNVM != wantNVM || pte.Writable != wantW {
			t.Fatalf("%s: demandMap(%#x) = NVM %v writable %v, linear scan says NVM %v writable %v",
				step, uint64(va), gotNVM, pte.Writable, wantNVM, wantW)
		}
	}
}

// TestSpanIndexTracksDomains drives seeded random Attach/Detach sequences
// under every scheme and checks the incrementally sorted span index after
// every step. The sequences include attaches the engine rejects
// (overlaps, duplicate IDs, and MPK running out of keys), detaches of
// domains that were never attached, and re-attaches after detach.
func TestSpanIndexTracksDomains(t *testing.T) {
	perms := []core.Perm{core.PermNone, core.PermR, core.PermRW}
	for _, s := range AllSchemes {
		t.Run(string(s), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				m := NewMachine(DefaultConfig(), s)
				model := make(map[core.DomainID]attachedRegion)
				attach := func(d core.DomainID, r memlayout.Region, perm core.Perm) error {
					err := m.Attach(d, r, perm)
					if err == nil {
						model[d] = attachedRegion{r, perm}
					}
					return err
				}
				detach := func(d core.DomainID) {
					m.Detach(d)
					delete(model, d)
				}

				// The forced cases first: an overlapping attach is
				// rejected, a never-attached domain detaches as a no-op,
				// and a detached domain attaches again elsewhere.
				first := memlayout.Region{Base: spanSlotBase, Size: 2 << 20}
				if err := attach(1, first, core.PermRW); err != nil {
					t.Fatal(err)
				}
				if err := attach(2, memlayout.Region{Base: spanSlotBase + memlayout.PageSize, Size: 64}, core.PermR); err == nil {
					t.Fatal("attach overlapping domain 1 was accepted")
				}
				checkSpanIndex(t, m, model, rng, "rejected overlap")
				detach(999)
				checkSpanIndex(t, m, model, rng, "detach of a never-attached domain")
				detach(1)
				checkSpanIndex(t, m, model, rng, "detach")
				if err := attach(1, memlayout.Region{Base: spanSlotBase + 4<<21, Size: 8 << 20}, core.PermR); err != nil {
					t.Fatal(err)
				}
				checkSpanIndex(t, m, model, rng, "re-attach after detach")

				for step := 0; step < 150; step++ {
					d := core.DomainID(1 + rng.Intn(24))
					if _, ok := model[d]; ok && rng.Intn(3) > 0 {
						detach(d)
					} else if rng.Intn(8) == 0 {
						detach(d)
					} else {
						_ = attach(d, spanRegion(rng), perms[rng.Intn(len(perms))])
					}
					checkSpanIndex(t, m, model, rng, "random step")
				}
				for _, d := range slices.Sorted(maps.Keys(model)) {
					detach(d)
				}
				checkSpanIndex(t, m, model, rng, "all detached")
			}
		})
	}
}

// BenchmarkAttach1024 attaches 1024 8 MiB regions to a fresh machine, the
// shape of a 1024-PMO warmup's attach phase. The regions are attached in
// a scattered address order, so inserts land all over the span index;
// each costs one binary search and one slice shift, not a re-sort of
// every attached span.
func BenchmarkAttach1024(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewMachine(cfg, SchemeDomainVirt)
		for d := core.DomainID(1); d <= 1024; d++ {
			slot := memlayout.VA(uint32(d) * 389 % 1024) // a permutation: 389 is odd
			r := memlayout.Region{Base: spanSlotBase + slot<<23, Size: 8 << 20}
			if err := m.Attach(d, r, core.PermRW); err != nil {
				b.Fatal(err)
			}
		}
	}
}
