package micro

import (
	"fmt"

	"domainvirt/internal/pmo"
	"domainvirt/internal/workload"
)

// Linked-list node layout: key u64, next OID, then the value payload.
const (
	llKey  = 0
	llNext = 8
	llHdr  = 16
)

// LinkedList is a sorted persistent singly-linked list whose nodes are
// scattered across pools — the worst-locality microbenchmark: "each node
// access could cause a TLB miss". The key universe is bounded so the
// steady-state traversal length stays in the hundreds.
type LinkedList struct {
	home     *pmo.Pool
	nodeSize uint64
}

// llSize bounds the list length, InitialElems/4 keys clamped to
// [64, 512]: duplicates update in place.
func llSize(p workload.Params) (uint64, int) {
	return uint64(min(max(p.InitialElems/4, 64), 512)), p.InitialElems
}

// NewLinkedList returns an empty sorted list whose head OID lives in
// home's root slot.
func NewLinkedList(ctx *OpCtx, home *pmo.Pool) *LinkedList {
	return &LinkedList{home: home, nodeSize: llHdr + uint64(ctx.Env.P.ValueSize)}
}

func (t *LinkedList) head() pmo.OID { return t.home.Root() }

func (t *LinkedList) setHead(ctx *OpCtx, o pmo.OID) {
	ctx.EnsureWrite(t.home)
	t.home.SetRoot(o)
}

// Insert adds key in sorted position (updating in place on duplicates).
func (t *LinkedList) Insert(ctx *OpCtx, key uint64) error {
	var prev pmo.OID
	cur := t.head()
	for !cur.IsNull() {
		k := ctx.R8(cur, llKey)
		if k == key {
			ctx.WriteValue(cur, llHdr, key)
			return nil
		}
		if k > key {
			break
		}
		prev = cur
		cur = ctx.ROID(cur, llNext)
	}
	n, err := ctx.Alloc(t.nodeSize)
	if err != nil {
		return err
	}
	ctx.W8(n, llKey, key)
	ctx.WOID(n, llNext, cur)
	ctx.WriteValue(n, llHdr, key)
	if prev.IsNull() {
		t.setHead(ctx, n)
	} else {
		ctx.WOID(prev, llNext, n)
	}
	return nil
}

// Delete unlinks and frees key's node; a miss is a pure traversal.
func (t *LinkedList) Delete(ctx *OpCtx, key uint64) (bool, error) {
	var prev pmo.OID
	cur := t.head()
	for !cur.IsNull() {
		k := ctx.R8(cur, llKey)
		if k == key {
			next := ctx.ROID(cur, llNext)
			if prev.IsNull() {
				t.setHead(ctx, next)
			} else {
				ctx.WOID(prev, llNext, next)
			}
			return true, ctx.Free(cur)
		}
		if k > key {
			return false, nil
		}
		prev = cur
		cur = ctx.ROID(cur, llNext)
	}
	return false, nil
}

// Keys returns the list's keys in order (tests).
func (t *LinkedList) Keys(ctx *OpCtx) []uint64 {
	var out []uint64
	for cur := t.head(); !cur.IsNull(); cur = ctx.ROID(cur, llNext) {
		out = append(out, ctx.R8(cur, llKey))
	}
	return out
}

// Validate checks strict sorted order.
func (t *LinkedList) Validate(ctx *OpCtx) error {
	keys := t.Keys(ctx)
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			return fmt.Errorf("linkedlist: unsorted at %d (%d >= %d)", i, keys[i-1], keys[i])
		}
	}
	return nil
}
