package sim

import (
	"fmt"

	"domainvirt/internal/cache"
	"domainvirt/internal/core"
	"domainvirt/internal/mem"
	"domainvirt/internal/pagetable"
	"domainvirt/internal/stats"
	"domainvirt/internal/tlb"
)

// Snapshot is a deep copy of a Machine's full simulated state: counters
// and breakdown, fault records, the attach table and its span index,
// thread affinity, the page table, the memory model, the whole cache
// hierarchy, every core's TLBs and invalidation debt, and the engine
// state (via core.Snapshotter).
//
// A snapshot is immutable once taken: Restore deep-copies out of it,
// never into it, so one snapshot can seed any number of machines,
// concurrently. The only exception is Machine.SnapshotInto, which reuses
// a snapshot's storage for a *new* capture — callers own the
// no-longer-restoring-from-it guarantee.
//
// Not captured: the Bind-time wiring a machine owns for its lifetime —
// the recorder and its sampler position (SetRecorder), the SETPERM
// inspector (SetInspector), and the engine's hooks/accounting bindings.
// The L0 micro-TLBs are also excluded: their slots are invalidated on
// restore, which is behavior-preserving by the DisableFastPath A/B
// invariant.
type Snapshot struct {
	scheme string
	ncores int

	bd            stats.Breakdown
	ctr           stats.Counters
	domains       map[core.DomainID]domainInfo
	spans         []domSpan
	affinity      map[core.ThreadID]int
	mutGen        uint64
	faults        []FaultRecord
	faultsDropped uint64

	pt     *pagetable.Table
	memst  mem.State
	caches *cache.HierarchyState
	cores  []coreSnap
	eng    core.EngineState
}

type coreSnap struct {
	cycles    uint64
	instRem   uint64
	thread    core.ThreadID
	active    bool
	tlbL1Hits uint64
	tlbL2Hits uint64
	tlbMisses uint64
	l1        tlb.State
	l2        tlb.State
	debt      map[uint64]struct{}
}

// Scheme returns the engine name the snapshot was taken under.
func (s *Snapshot) Scheme() string { return s.scheme }

// Snapshot captures the machine's full simulated state. The bound engine
// must implement core.Snapshotter (all six built-in engines do).
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{}
	m.SnapshotInto(s)
	return s
}

// SnapshotInto overwrites s with a fresh capture, reusing s's allocated
// buffers where geometries match. The previous contents of s become
// invalid; the caller must not be restoring from them concurrently.
func (m *Machine) SnapshotInto(s *Snapshot) {
	snapper, ok := m.engine.(core.Snapshotter)
	if !ok {
		panic(fmt.Sprintf("sim: engine %q does not implement core.Snapshotter", m.engine.Name()))
	}

	s.scheme = m.engine.Name()
	s.ncores = len(m.cores)
	s.bd = m.bd
	s.ctr = m.ctr

	if s.domains == nil {
		s.domains = make(map[core.DomainID]domainInfo, len(m.domains))
	} else {
		clear(s.domains)
	}
	for d, di := range m.domains {
		s.domains[d] = di
	}
	s.spans = append(s.spans[:0], m.spans...)
	if m.affinity == nil {
		s.affinity = nil
	} else {
		if s.affinity == nil {
			s.affinity = make(map[core.ThreadID]int, len(m.affinity))
		} else {
			clear(s.affinity)
		}
		for th, c := range m.affinity {
			s.affinity[th] = c
		}
	}
	s.mutGen = m.mutGen
	s.faults = append(s.faults[:0], m.faults...)
	s.faultsDropped = m.faultsDropped

	s.pt = m.pt.Clone()
	s.memst = m.memory.Snapshot()
	if s.caches == nil {
		s.caches = &cache.HierarchyState{}
	}
	m.caches.SnapshotInto(s.caches)

	if len(s.cores) != len(m.cores) {
		s.cores = make([]coreSnap, len(m.cores))
	}
	for i, c := range m.cores {
		cs := &s.cores[i]
		cs.cycles = c.cycles
		cs.instRem = c.instRem
		cs.thread = c.thread
		cs.active = c.active
		cs.tlbL1Hits = c.tlbL1Hits
		cs.tlbL2Hits = c.tlbL2Hits
		cs.tlbMisses = c.tlbMisses
		c.l1tlb.SnapshotInto(&cs.l1)
		c.l2tlb.SnapshotInto(&cs.l2)
		cs.debt = c.debt.Snapshot()
	}

	s.eng = snapper.SnapshotState()
}

// Restore reinstates a snapshot into m: afterwards m's simulated state is
// indistinguishable from the machine the snapshot was taken on, and the
// continuation of any event stream produces bit-identical results. The
// target must run the same scheme with the same structural geometry
// (cores, TLB/cache/PTLB/DTTLB sizes); cost parameters are free to
// differ — they are pure accounting, so a snapshot taken after a stats
// reset seeds cells of a cost-parameter sweep directly.
//
// Restore leaves the recorder and its sampler boundary alone. To observe
// a run that continues from a snapshot, attach a new recorder with
// SetRecorder after Restore, as a cell's measured phase does on its
// post-ResetStats checkpoint.
func (m *Machine) Restore(s *Snapshot) {
	if s.scheme != m.engine.Name() {
		panic(fmt.Sprintf("sim: Restore scheme mismatch: snapshot %q, machine %q", s.scheme, m.engine.Name()))
	}
	if s.ncores != len(m.cores) {
		panic(fmt.Sprintf("sim: Restore core-count mismatch: snapshot %d, machine %d", s.ncores, len(m.cores)))
	}

	m.bd = s.bd
	m.ctr = s.ctr

	clear(m.domains)
	for d, di := range s.domains {
		m.domains[d] = di
	}
	m.spans = append(m.spans[:0], s.spans...)
	if s.affinity == nil {
		m.affinity = nil
	} else {
		m.affinity = make(map[core.ThreadID]int, len(s.affinity))
		for th, c := range s.affinity {
			m.affinity[th] = c
		}
	}
	m.mutGen = s.mutGen
	m.faults = append(m.faults[:0], s.faults...)
	m.faultsDropped = s.faultsDropped

	m.pt = s.pt.Clone()
	m.memory.Restore(s.memst)
	m.caches.Restore(s.caches)

	for i, c := range m.cores {
		cs := &s.cores[i]
		c.cycles = cs.cycles
		c.instRem = cs.instRem
		c.thread = cs.thread
		c.active = cs.active
		c.tlbL1Hits = cs.tlbL1Hits
		c.tlbL2Hits = cs.tlbL2Hits
		c.tlbMisses = cs.tlbMisses
		c.l1tlb.Restore(cs.l1)
		c.l2tlb.Restore(cs.l2)
		c.debt.Restore(cs.debt)
		// Drop memoized translations; gen 0 never matches mutGen.
		for j := range c.l0 {
			c.l0[j].gen = 0
		}
	}

	m.engine.(core.Snapshotter).RestoreState(s.eng)

	// The thread→core memo may point at stale placement; coreFor re-derives
	// it (a re-resolution of an unchanged thread is a no-op).
	m.curTh, m.curCore = 0, nil
}
