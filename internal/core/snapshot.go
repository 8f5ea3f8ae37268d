package core

import (
	"maps"

	"domainvirt/internal/memlayout"
	"domainvirt/internal/mpk"
)

// Snapshotter is implemented by every engine. SnapshotState captures the
// engine's full mutable state as an opaque deep copy; RestoreState
// reinstates one taken from an engine of the same type and geometry
// (core count, DTTLB/PTLB sizes).
//
// The contract mirrors the leaf snapshot primitives: a snapshot is
// immutable once taken — RestoreState deep-copies out of it, never
// aliases into it — so one snapshot can seed many engines, concurrently.
// RestoreState never touches the Bind-time plumbing (hooks, breakdown,
// counter, and event-sink pointers stay with the receiving engine).
type Snapshotter interface {
	SnapshotState() EngineState
	RestoreState(st EngineState)
}

// EngineState is one engine's snapshot: a tag and a pointer to the state
// struct it names, one of the five below, opaque outside this package.
// Its AppendTo and DecodeFrom (codec.go) are the snapshot codec's hook
// for the one field of a machine snapshot whose type varies with the
// scheme.
type EngineState struct {
	tag uint8
	st  any
}

// copyMap returns a copy of m that is never nil: a decoded snapshot's
// empty maps are, and a restored engine writes into its maps.
func copyMap[K comparable, V any](m map[K]V) map[K]V {
	c := make(map[K]V, len(m))
	maps.Copy(c, m)
	return c
}

func copyThreadPermTable(m map[ThreadID]map[DomainID]Perm) map[ThreadID]map[DomainID]Perm {
	c := make(map[ThreadID]map[DomainID]Perm, len(m))
	for th, dm := range m {
		c[th] = copyMap(dm)
	}
	return c
}

// baseState is the state of the table-only engines (Baseline, Lowerbound).
type baseState struct {
	table *DomainTable
}

// SnapshotState implements Snapshotter.
func (e *Baseline) SnapshotState() EngineState {
	return EngineState{tagBaseState, &baseState{table: e.table.Clone()}}
}

// RestoreState implements Snapshotter.
func (e *Baseline) RestoreState(st EngineState) { e.table = st.st.(*baseState).table.Clone() }

// SnapshotState implements Snapshotter.
func (e *Lowerbound) SnapshotState() EngineState {
	return EngineState{tagBaseState, &baseState{table: e.table.Clone()}}
}

// RestoreState implements Snapshotter.
func (e *Lowerbound) RestoreState(st EngineState) { e.table = st.st.(*baseState).table.Clone() }

// mpkState is the default-MPK engine state.
type mpkState struct {
	alloc     uint16
	keyOf     map[DomainID]uint8
	pkruCore  []mpk.PKRU
	pkruSaved map[ThreadID]mpk.PKRU
	current   []ThreadID
	table     *DomainTable
}

// SnapshotState implements Snapshotter.
func (e *MPK) SnapshotState() EngineState {
	return EngineState{tagMPKState, &mpkState{
		alloc:     e.alloc.State(),
		keyOf:     copyMap(e.keyOf),
		pkruCore:  append([]mpk.PKRU(nil), e.pkruCore...),
		pkruSaved: copyMap(e.pkruSaved),
		current:   append([]ThreadID(nil), e.current...),
		table:     e.table.Clone(),
	}}
}

// RestoreState implements Snapshotter.
func (e *MPK) RestoreState(st EngineState) {
	s := st.st.(*mpkState)
	if len(s.pkruCore) != len(e.pkruCore) || len(s.current) != len(e.current) {
		panic("core: MPK RestoreState core-count mismatch")
	}
	e.alloc.SetState(s.alloc)
	e.keyOf = copyMap(s.keyOf)
	copy(e.pkruCore, s.pkruCore)
	e.pkruSaved = copyMap(s.pkruSaved)
	copy(e.current, s.current)
	e.table = s.table.Clone()
}

// libmpkState is the software MPK-virtualization engine state.
type libmpkState struct {
	keyOf     map[DomainID]uint8
	ownerOf   [mpk.NumKeys]DomainID
	alloc     uint16
	lruStamp  [mpk.NumKeys]uint64
	clock     uint64
	perms     map[ThreadID]map[DomainID]Perm
	pkruCore  []mpk.PKRU
	pkruSaved map[ThreadID]mpk.PKRU
	current   []ThreadID
	table     *DomainTable
}

// SnapshotState implements Snapshotter.
func (e *Libmpk) SnapshotState() EngineState {
	return EngineState{tagLibmpkState, &libmpkState{
		keyOf:     copyMap(e.keyOf),
		ownerOf:   e.ownerOf,
		alloc:     e.alloc.State(),
		lruStamp:  e.lruStamp,
		clock:     e.clock,
		perms:     copyThreadPermTable(e.perms),
		pkruCore:  append([]mpk.PKRU(nil), e.pkruCore...),
		pkruSaved: copyMap(e.pkruSaved),
		current:   append([]ThreadID(nil), e.current...),
		table:     e.table.Clone(),
	}}
}

// RestoreState implements Snapshotter.
func (e *Libmpk) RestoreState(st EngineState) {
	s := st.st.(*libmpkState)
	if len(s.pkruCore) != len(e.pkruCore) || len(s.current) != len(e.current) {
		panic("core: Libmpk RestoreState core-count mismatch")
	}
	e.keyOf = copyMap(s.keyOf)
	e.ownerOf = s.ownerOf
	e.alloc.SetState(s.alloc)
	e.lruStamp = s.lruStamp
	e.clock = s.clock
	e.perms = copyThreadPermTable(s.perms)
	copy(e.pkruCore, s.pkruCore)
	e.pkruSaved = copyMap(s.pkruSaved)
	copy(e.current, s.current)
	e.table = s.table.Clone()
}

// mpkvirtState is the hardware MPK-virtualization engine state. The live
// engine aliases *dttEntry pointers across the entries map, the ownerOf
// key array, and every per-core DTTLB slot; the snapshot flattens each
// alias to the entry's domain ID and the restore rebuilds the pointer
// graph from freshly copied entries.
type mpkvirtState struct {
	entries   map[DomainID]dttEntrySnap
	ownerOf   [mpk.NumKeys]DomainID // NullDomain = key free
	keyPLRU   PLRUState
	dttlbs    []dttlbSnap
	pkruCore  []mpk.PKRU
	pkruSaved map[ThreadID]mpk.PKRU
	current   []ThreadID
	table     *DomainTable
}

type dttEntrySnap struct {
	region memlayout.Region
	key    uint8
	hasKey bool
	perms  map[ThreadID]Perm
}

type dttlbSnap struct {
	slots []DomainID // NullDomain = empty slot
	dirty []bool
	plru  PLRUState
}

// SnapshotState implements Snapshotter.
func (e *MPKVirt) SnapshotState() EngineState {
	s := &mpkvirtState{
		entries:   make(map[DomainID]dttEntrySnap, len(e.entries)),
		keyPLRU:   e.keyPLRU.Save(),
		dttlbs:    make([]dttlbSnap, len(e.dttlbs)),
		pkruCore:  append([]mpk.PKRU(nil), e.pkruCore...),
		pkruSaved: copyMap(e.pkruSaved),
		current:   append([]ThreadID(nil), e.current...),
		table:     e.table.Clone(),
	}
	for d, ent := range e.entries {
		s.entries[d] = dttEntrySnap{
			region: ent.region,
			key:    ent.key,
			hasKey: ent.hasKey,
			perms:  copyMap(ent.perms),
		}
	}
	for k, ent := range e.ownerOf {
		if ent != nil {
			s.ownerOf[k] = ent.domain
		}
	}
	for i, t := range e.dttlbs {
		ts := dttlbSnap{
			slots: make([]DomainID, len(t.slots)),
			dirty: append([]bool(nil), t.dirty...),
			plru:  t.plru.Save(),
		}
		for j, ent := range t.slots {
			if ent != nil {
				ts.slots[j] = ent.domain
			}
		}
		s.dttlbs[i] = ts
	}
	return EngineState{tagMPKVirtState, s}
}

// RestoreState implements Snapshotter.
func (e *MPKVirt) RestoreState(st EngineState) {
	s := st.st.(*mpkvirtState)
	if len(s.dttlbs) != len(e.dttlbs) || len(s.pkruCore) != len(e.pkruCore) || len(s.current) != len(e.current) {
		panic("core: MPKVirt RestoreState core-count mismatch")
	}
	e.entries = make(map[DomainID]*dttEntry, len(s.entries))
	for d, snap := range s.entries {
		e.entries[d] = &dttEntry{
			domain: d,
			region: snap.region,
			key:    snap.key,
			hasKey: snap.hasKey,
			perms:  copyMap(snap.perms),
		}
	}
	for k := range e.ownerOf {
		if d := s.ownerOf[k]; d != NullDomain {
			e.ownerOf[k] = e.entries[d]
		} else {
			e.ownerOf[k] = nil
		}
	}
	e.keyPLRU.Load(s.keyPLRU)
	for i, t := range e.dttlbs {
		ts := s.dttlbs[i]
		if len(ts.slots) != len(t.slots) || len(ts.dirty) != len(ts.slots) {
			panic("core: MPKVirt RestoreState DTTLB-size mismatch")
		}
		for j, d := range ts.slots {
			if d != NullDomain {
				t.slots[j] = e.entries[d]
			} else {
				t.slots[j] = nil
			}
		}
		copy(t.dirty, ts.dirty)
		t.plru.Load(ts.plru)
	}
	copy(e.pkruCore, s.pkruCore)
	e.pkruSaved = copyMap(s.pkruSaved)
	copy(e.current, s.current)
	e.table = s.table.Clone()
}

// domvirtState is the hardware domain-virtualization engine state.
type domvirtState struct {
	pt      map[DomainID]map[ThreadID]Perm
	ptlbs   []ptlbSnap
	current []ThreadID
	table   *DomainTable
}

type ptlbSnap struct {
	ents []ptlbEntry
	plru PLRUState
}

// SnapshotState implements Snapshotter.
func (e *DomainVirt) SnapshotState() EngineState {
	s := &domvirtState{
		pt:      make(map[DomainID]map[ThreadID]Perm, len(e.pt)),
		ptlbs:   make([]ptlbSnap, len(e.ptlbs)),
		current: append([]ThreadID(nil), e.current...),
		table:   e.table.Clone(),
	}
	for d, m := range e.pt {
		s.pt[d] = copyMap(m)
	}
	for i, t := range e.ptlbs {
		s.ptlbs[i] = ptlbSnap{
			ents: append([]ptlbEntry(nil), t.ents...),
			plru: t.plru.Save(),
		}
	}
	return EngineState{tagDomVirtState, s}
}

// RestoreState implements Snapshotter.
func (e *DomainVirt) RestoreState(st EngineState) {
	s := st.st.(*domvirtState)
	if len(s.ptlbs) != len(e.ptlbs) || len(s.current) != len(e.current) {
		panic("core: DomainVirt RestoreState core-count mismatch")
	}
	e.pt = make(map[DomainID]map[ThreadID]Perm, len(s.pt))
	for d, m := range s.pt {
		e.pt[d] = copyMap(m)
	}
	for i, t := range e.ptlbs {
		if len(s.ptlbs[i].ents) != len(t.ents) {
			panic("core: DomainVirt RestoreState PTLB-size mismatch")
		}
		copy(t.ents, s.ptlbs[i].ents)
		t.plru.Load(s.ptlbs[i].plru)
	}
	copy(e.current, s.current)
	e.table = s.table.Clone()
}
