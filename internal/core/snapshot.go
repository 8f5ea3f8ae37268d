package core

import (
	"fmt"

	"domainvirt/internal/memlayout"
	"domainvirt/internal/mpk"
)

// Snapshotter is implemented by every engine. SnapshotState returns the
// engine's full mutable state for a machine snapshot to encode at once:
// it aliases the engine's own maps, slices and domain table, so it is
// valid only until the engine next changes. RestoreState makes a decoded
// state the engine's own, taking its storage over without a copy, so the
// state must come from a fresh decode that nothing else holds. It
// returns an error for a state of another engine type or geometry (core
// count, DTTLB/PTLB sizes); the engine may then be partly restored and
// must be rebuilt. RestoreState never touches the Bind-time plumbing
// (hooks, breakdown, counter, and event-sink pointers stay with the
// receiving engine).
type Snapshotter interface {
	SnapshotState() EngineState
	RestoreState(st EngineState) error
}

// EngineState is one engine's state as a machine snapshot encodes it: a
// tag and a pointer to the state struct it names, one of the five below,
// opaque outside this package. One SnapshotState returns aliases the
// engine; one DecodeFrom fills is fresh, for RestoreState to adopt. Its
// AppendTo and DecodeFrom (codec.go) are the snapshot codec's hook for
// the one field of a machine snapshot whose type varies with the scheme.
type EngineState struct {
	tag uint8
	st  any
}

// stateOf returns the state struct st holds as a *S, or an error naming
// the engine that cannot restore it.
func stateOf[S any](st EngineState, engine string) (*S, error) {
	if s, ok := st.st.(*S); ok {
		return s, nil
	}
	return nil, fmt.Errorf("core: %s cannot restore an engine state of tag %d", engine, st.tag)
}

// checkState returns an error unless the state has a domain table and
// every per-core slice length in lens is the engine's core count.
func checkState(engine string, table *DomainTable, ncores int, lens ...int) error {
	if table == nil {
		return fmt.Errorf("core: %s state has no domain table", engine)
	}
	for _, n := range lens {
		if n != ncores {
			return fmt.Errorf("core: %s state for %d cores, engine has %d", engine, n, ncores)
		}
	}
	return nil
}

// baseState is the state of the table-only engines (Baseline, Lowerbound).
type baseState struct {
	table *DomainTable
}

// SnapshotState implements Snapshotter.
func (e *engineBase) SnapshotState() EngineState {
	return EngineState{tagBaseState, &baseState{table: e.table}}
}

// restoreBase is RestoreState of a table-only engine named engine.
func (e *engineBase) restoreBase(st EngineState, engine string) error {
	s, err := stateOf[baseState](st, engine)
	if err != nil {
		return err
	}
	if err := checkState(engine, s.table, 0); err != nil {
		return err
	}
	e.table = s.table
	return nil
}

// RestoreState implements Snapshotter.
func (e *Baseline) RestoreState(st EngineState) error { return e.restoreBase(st, e.Name()) }

// RestoreState implements Snapshotter.
func (e *Lowerbound) RestoreState(st EngineState) error { return e.restoreBase(st, e.Name()) }

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
		keyOf:     e.keyOf,
		pkruCore:  e.pkruCore,
		pkruSaved: e.pkruSaved,
		current:   e.current,
		table:     e.table,
	}}
}

// RestoreState implements Snapshotter.
func (e *MPK) RestoreState(st EngineState) error {
	s, err := stateOf[mpkState](st, e.Name())
	if err != nil {
		return err
	}
	if err := checkState(e.Name(), s.table, len(e.current), len(s.pkruCore), len(s.current)); err != nil {
		return err
	}
	e.alloc.SetState(s.alloc)
	e.keyOf, e.pkruCore, e.pkruSaved, e.current, e.table = s.keyOf, s.pkruCore, s.pkruSaved, s.current, s.table
	return nil
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
		keyOf:     e.keyOf,
		ownerOf:   e.ownerOf,
		alloc:     e.alloc.State(),
		lruStamp:  e.lruStamp,
		clock:     e.clock,
		perms:     e.perms,
		pkruCore:  e.pkruCore,
		pkruSaved: e.pkruSaved,
		current:   e.current,
		table:     e.table,
	}}
}

// RestoreState implements Snapshotter.
func (e *Libmpk) RestoreState(st EngineState) error {
	s, err := stateOf[libmpkState](st, e.Name())
	if err != nil {
		return err
	}
	if err := checkState(e.Name(), s.table, len(e.current), len(s.pkruCore), len(s.current)); err != nil {
		return err
	}
	e.ownerOf, e.lruStamp, e.clock = s.ownerOf, s.lruStamp, s.clock
	e.alloc.SetState(s.alloc)
	e.keyOf, e.perms, e.pkruCore, e.pkruSaved, e.current, e.table = s.keyOf, s.perms, s.pkruCore, s.pkruSaved, s.current, s.table
	return nil
}

// mpkvirtState is the hardware MPK-virtualization engine state. The live
// engine aliases *dttEntry pointers across the entries map, the ownerOf
// key array, and every per-core DTTLB slot; the snapshot flattens each
// alias to the entry's domain ID and the restore rebuilds the pointer
// graph from the decoded entries.
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
		keyPLRU:   e.keyPLRU.Stored(),
		dttlbs:    make([]dttlbSnap, len(e.dttlbs)),
		pkruCore:  e.pkruCore,
		pkruSaved: e.pkruSaved,
		current:   e.current,
		table:     e.table,
	}
	for d, ent := range e.entries {
		s.entries[d] = dttEntrySnap{region: ent.region, key: ent.key, hasKey: ent.hasKey, perms: ent.perms}
	}
	for k, ent := range e.ownerOf {
		if ent != nil {
			s.ownerOf[k] = ent.domain
		}
	}
	for i, t := range e.dttlbs {
		ts := dttlbSnap{slots: make([]DomainID, len(t.slots)), dirty: t.dirty, plru: t.plru.Stored()}
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
func (e *MPKVirt) RestoreState(st EngineState) error {
	s, err := stateOf[mpkvirtState](st, e.Name())
	if err != nil {
		return err
	}
	if err := checkState(e.Name(), s.table, len(e.current), len(s.dttlbs), len(s.pkruCore), len(s.current)); err != nil {
		return err
	}
	for i, t := range e.dttlbs {
		if ts := &s.dttlbs[i]; len(ts.slots) != len(t.slots) || len(ts.dirty) != len(t.slots) {
			return fmt.Errorf("core: mpkvirt state of %d DTTLB slots and %d dirty bits for a %d-entry DTTLB",
				len(ts.slots), len(ts.dirty), len(t.slots))
		}
	}
	e.entries = make(map[DomainID]*dttEntry, len(s.entries))
	for d, snap := range s.entries {
		e.entries[d] = &dttEntry{domain: d, region: snap.region, key: snap.key, hasKey: snap.hasKey, perms: snap.perms}
	}
	entry := func(d DomainID) *dttEntry {
		if d == NullDomain {
			return nil
		}
		return e.entries[d]
	}
	for k, d := range s.ownerOf {
		e.ownerOf[k] = entry(d)
	}
	if err := e.keyPLRU.Adopt(s.keyPLRU); err != nil {
		return err
	}
	for i, t := range e.dttlbs {
		ts := &s.dttlbs[i]
		for j, d := range ts.slots {
			t.slots[j] = entry(d)
		}
		t.dirty = ts.dirty
		if err := t.plru.Adopt(ts.plru); err != nil {
			return err
		}
	}
	e.pkruCore, e.pkruSaved, e.current, e.table = s.pkruCore, s.pkruSaved, s.current, s.table
	return nil
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
		pt:      e.pt,
		ptlbs:   make([]ptlbSnap, len(e.ptlbs)),
		current: e.current,
		table:   e.table,
	}
	for i, t := range e.ptlbs {
		s.ptlbs[i] = ptlbSnap{ents: t.ents, plru: t.plru.Stored()}
	}
	return EngineState{tagDomVirtState, s}
}

// RestoreState implements Snapshotter.
func (e *DomainVirt) RestoreState(st EngineState) error {
	s, err := stateOf[domvirtState](st, e.Name())
	if err != nil {
		return err
	}
	if err := checkState(e.Name(), s.table, len(e.current), len(s.ptlbs), len(s.current)); err != nil {
		return err
	}
	for i, t := range e.ptlbs {
		if n := len(s.ptlbs[i].ents); n != len(t.ents) {
			return fmt.Errorf("core: domainvirt state of %d PTLB entries for a %d-entry PTLB", n, len(t.ents))
		}
	}
	for i, t := range e.ptlbs {
		t.ents = s.ptlbs[i].ents
		if err := t.plru.Adopt(s.ptlbs[i].plru); err != nil {
			return err
		}
	}
	e.pt, e.current, e.table = s.pt, s.current, s.table
	return nil
}
