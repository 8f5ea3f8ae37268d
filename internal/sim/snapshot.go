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

// Snapshot is a Machine's full simulated state in its encoded form: the
// versioned, checksummed bytes EncodeSnapshot returns and DecodeSnapshot
// accepts. The state it encodes is counters and breakdown, fault
// records, the attach table and its span index, thread affinity, the
// page table, the memory model, the whole cache hierarchy, every core's
// TLBs and invalidation debt, and the engine state (via
// core.Snapshotter).
//
// A snapshot is immutable: Restore decodes its bytes afresh into state
// the restored machine then owns, so one snapshot can seed any number of
// machines, concurrently.
//
// Not captured: the Bind-time wiring a machine owns for its lifetime —
// the recorder and its sampler position (SetRecorder), the SETPERM
// inspector (SetInspector), and the engine's hooks/accounting bindings.
// The L0 micro-TLBs are also excluded: their slots are invalidated on
// restore, which is behavior-preserving by the DisableFastPath A/B
// invariant.
type Snapshot struct {
	data []byte
}

// state is the payload of a snapshot: bincodec derives the snapshot
// format from its fields, in this order, and the state structs they
// hold. A capture fills it with the machine's own maps, slices and
// tables and encodes it at once; a restore decodes a fresh one and the
// machine takes its storage over.
type state struct {
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
	coreRegs
	l1   tlb.State
	l2   tlb.State
	debt map[uint64]struct{}
}

// Scheme returns the engine name the snapshot was taken under: the
// payload's first field.
func (s *Snapshot) Scheme() string { return s.payload().Str() }

// Snapshot captures the machine's full simulated state. The bound engine
// must implement core.Snapshotter (all six built-in engines do).
func (m *Machine) Snapshot() *Snapshot {
	snapper, ok := m.engine.(core.Snapshotter)
	if !ok {
		panic(fmt.Sprintf("sim: engine %q does not implement core.Snapshotter", m.engine.Name()))
	}
	st := state{
		scheme:        m.engine.Name(),
		ncores:        len(m.cores),
		bd:            m.bd,
		ctr:           m.ctr,
		domains:       m.domains,
		spans:         m.spans,
		affinity:      m.affinity,
		mutGen:        m.mutGen,
		faults:        m.faults,
		faultsDropped: m.faultsDropped,
		pt:            m.pt,
		memst:         m.memory.Snapshot(),
		caches:        m.caches.Stored(),
		cores:         make([]coreSnap, len(m.cores)),
		eng:           snapper.SnapshotState(),
	}
	for i, c := range m.cores {
		st.cores[i] = coreSnap{c.coreRegs, c.l1tlb.Stored(), c.l2tlb.Stored(), c.debt.Stored()}
	}
	return &Snapshot{data: encode(&st)}
}

// Restore reinstates a snapshot into m: afterwards m's simulated state is
// indistinguishable from the machine the snapshot was taken on, and the
// continuation of any event stream produces bit-identical results. The
// target must run the same scheme with the same structural geometry
// (cores, TLB/cache/PTLB/DTTLB sizes); cost parameters are free to
// differ — they are pure accounting, so a snapshot taken after a stats
// reset seeds cells of a cost-parameter sweep directly.
//
// Restore panics with the error RestoreSafe would return: on the
// in-memory path a mismatch is a caller bug.
//
// Restore leaves the recorder and its sampler boundary alone. To observe
// a run that continues from a snapshot, attach a new recorder with
// SetRecorder after Restore, as a cell's measured phase does on its
// post-ResetStats checkpoint.
func (m *Machine) Restore(s *Snapshot) {
	if err := m.RestoreSafe(s); err != nil {
		panic(err)
	}
}

// RestoreSafe is Restore for snapshots of untrusted provenance (a disk
// store another process wrote). It decodes the payload into a fresh
// state, returning ErrSnapshotCorrupt when it is malformed, and checks
// the state's scheme and geometry against m's, returning an error on a
// mismatch; then m takes the decoded state over without copying it. On
// an error the machine is owed a rebuild by the caller: its state may be
// partly overwritten.
func (m *Machine) RestoreSafe(s *Snapshot) error {
	var st state
	if err := decode(s.payload(), &st); err != nil {
		return err
	}
	if err := m.adopt(&st); err != nil {
		return fmt.Errorf("sim: restore rejected: %w", err)
	}
	return nil
}

// adopt makes a decoded state m's own after checking it fits m.
func (m *Machine) adopt(st *state) error {
	snapper, ok := m.engine.(core.Snapshotter)
	if !ok || st.scheme != m.engine.Name() {
		return fmt.Errorf("scheme mismatch: snapshot %q, machine %q", st.scheme, m.engine.Name())
	}
	if st.ncores != len(m.cores) || len(st.cores) != len(m.cores) {
		return fmt.Errorf("core-count mismatch: snapshot %d, machine %d", st.ncores, len(m.cores))
	}
	if st.pt == nil {
		return fmt.Errorf("snapshot has no page table")
	}
	if err := m.caches.Adopt(st.caches); err != nil {
		return err
	}
	for i, c := range m.cores {
		cs := &st.cores[i]
		if err := c.l1tlb.Adopt(cs.l1); err != nil {
			return fmt.Errorf("L1 TLB: %w", err)
		}
		if err := c.l2tlb.Adopt(cs.l2); err != nil {
			return fmt.Errorf("L2 TLB: %w", err)
		}
		c.debt.Adopt(cs.debt)
		c.coreRegs = cs.coreRegs
		// Drop memoized translations; gen 0 never matches mutGen.
		for j := range c.l0 {
			c.l0[j].gen = 0
		}
	}
	if err := snapper.RestoreState(st.eng); err != nil {
		return err
	}

	m.bd = st.bd
	m.ctr = st.ctr
	m.domains = st.domains
	m.spans = st.spans
	m.affinity = st.affinity
	m.mutGen = st.mutGen
	m.faults = st.faults
	m.faultsDropped = st.faultsDropped
	m.pt = st.pt
	m.memory.Restore(st.memst)

	// The thread→core memo may point at stale placement; coreFor re-derives
	// it (a re-resolution of an unchanged thread is a no-op).
	m.curTh, m.curCore = 0, nil
	return nil
}
