package core

import "fmt"

// PLRU is a tree-based pseudo-LRU replacement policy over a power-of-two
// number of slots, as used by the DTTLB, the PTLB, and the protection-key
// victim selection of the hardware MPK-virtualization design ("Pseudo LRU
// in our implementation").
//
// The tree is stored implicitly: node 1 is the root, node i has children
// 2i and 2i+1; leaves correspond to slots. Each internal node holds one
// bit pointing toward the less recently used subtree. For the common
// small sizes (every engine uses 16 slots) the node bits pack into a
// single uint64, and because the bits a Touch writes depend only on the
// slot, each slot's whole root→leaf update collapses into two precomputed
// masks — one AND-NOT, one OR. Slot counts above 64 fall back to the
// per-node walk over a bool array.
type PLRU struct {
	bits  uint64 // packed node bits (bit i = node i) when slots <= 64
	big   []bool // fallback node storage when slots > 64
	slots int

	touchClear []uint64 // per-slot: every node bit on the slot's path
	touchSet   []uint64 // per-slot: the path bits Touch sets to true
}

// CheckPLRUSlots reports why slots is no PLRU slot count, or nil: it
// must be a positive power of two.
func CheckPLRUSlots(slots int) error {
	if slots <= 0 || slots&(slots-1) != 0 {
		return fmt.Errorf("core: PLRU slots must be a power of two, not %d", slots)
	}
	return nil
}

// NewPLRU returns a PLRU over the given slot count. It panics on a count
// CheckPLRUSlots refuses.
func NewPLRU(slots int) *PLRU {
	if err := CheckPLRUSlots(slots); err != nil {
		panic(err)
	}
	p := &PLRU{slots: slots}
	if slots > 64 {
		p.big = make([]bool, slots)
		return p
	}
	p.touchClear = make([]uint64, slots)
	p.touchSet = make([]uint64, slots)
	for s := 0; s < slots; s++ {
		node := 1
		var clearM, setM uint64
		for half := slots >> 1; half > 0; half >>= 1 {
			left := s&half == 0
			clearM |= 1 << uint(node)
			if left {
				// Point toward the other (colder) subtree.
				setM |= 1 << uint(node)
			}
			node *= 2
			if !left {
				node++
			}
		}
		p.touchClear[s], p.touchSet[s] = clearM, setM
	}
	return p
}

// PLRUState is the mutable recency state of a PLRU as a snapshot stores
// it. The precomputed touch masks are per-geometry constants and not
// part of it.
type PLRUState struct {
	Bits uint64
	Big  []bool
}

// Stored returns the recency state, aliasing the PLRU's node storage.
func (p *PLRU) Stored() PLRUState { return PLRUState{Bits: p.bits, Big: p.big} }

// Adopt makes s the recency state, taking over its node storage. It
// refuses a state stored from a PLRU of another slot count, changing
// nothing.
func (p *PLRU) Adopt(s PLRUState) error {
	if len(s.Big) != len(p.big) {
		return fmt.Errorf("core: PLRU state of %d nodes for %d slots", len(s.Big), p.slots)
	}
	p.bits, p.big = s.Bits, s.Big
	return nil
}

// Touch marks slot as most recently used: every node on the root→leaf
// path is pointed away from it. At depth d the subtree under the current
// node spans 2*half slots (half starts at slots/2 and halves per level),
// so slot&half selects the child containing slot.
func (p *PLRU) Touch(slot int) {
	if p.big == nil {
		p.bits = p.bits&^p.touchClear[slot] | p.touchSet[slot]
		return
	}
	node := 1
	for half := p.slots >> 1; half > 0; half >>= 1 {
		left := slot&half == 0
		p.big[node] = left
		node *= 2
		if !left {
			node++
		}
	}
}

// Victim returns the pseudo-least-recently-used slot without updating
// state.
func (p *PLRU) Victim() int {
	node := 1
	slot := 0
	if p.big == nil {
		bits := p.bits
		for half := p.slots >> 1; half > 0; half >>= 1 {
			if bits&(1<<uint(node)) != 0 {
				// Bit points right: the right subtree is colder.
				slot += half
				node = node*2 + 1
			} else {
				node = node * 2
			}
		}
		return slot
	}
	for half := p.slots >> 1; half > 0; half >>= 1 {
		if p.big[node] {
			slot += half
			node = node*2 + 1
		} else {
			node = node * 2
		}
	}
	return slot
}

// VictimExcluding returns the PLRU victim, skipping slots for which skip
// returns true (e.g. the reserved null key). It touches skipped slots so
// repeated calls make progress; it panics if every slot is skipped.
func (p *PLRU) VictimExcluding(skip func(int) bool) int {
	for i := 0; i < p.slots; i++ {
		v := p.Victim()
		if !skip(v) {
			return v
		}
		p.Touch(v)
	}
	panic("core: PLRU has no eligible victim")
}
