package micro

import (
	"fmt"

	"domainvirt/internal/pmo"
)

// AVL node layout: key u64, left OID, right OID, height u64, then the
// 64-byte value payload.
const (
	avlKey    = 0
	avlLeft   = 8
	avlRight  = 16
	avlHeight = 24
	avlHdr    = 32
)

// AVL is a persistent AVL tree whose nodes are scattered across pools.
// The root OID lives in the home pool's root slot.
type AVL struct {
	home     *pmo.Pool // holds the root pointer
	nodeSize uint64
}

// NewAVL returns an empty AVL tree whose root pointer lives in home.
func NewAVL(ctx *OpCtx, home *pmo.Pool) *AVL {
	return &AVL{home: home, nodeSize: avlHdr + uint64(ctx.Env.P.ValueSize)}
}

func (t *AVL) root() pmo.OID { return t.home.Root() }
func (t *AVL) setRoot(ctx *OpCtx, o pmo.OID) {
	ctx.EnsureWrite(t.home)
	t.home.SetRoot(o)
}

func (t *AVL) height(ctx *OpCtx, o pmo.OID) uint64 {
	if o.IsNull() {
		return 0
	}
	return ctx.R8(o, avlHeight)
}

func (t *AVL) newNode(ctx *OpCtx, key uint64) (pmo.OID, error) {
	o, err := ctx.Alloc(t.nodeSize)
	if err != nil {
		return pmo.NullOID, err
	}
	ctx.W8(o, avlKey, key)
	ctx.WOID(o, avlLeft, pmo.NullOID)
	ctx.WOID(o, avlRight, pmo.NullOID)
	ctx.W8(o, avlHeight, 1)
	ctx.WriteValue(o, avlHdr, key)
	return o, nil
}

func (t *AVL) updateHeight(ctx *OpCtx, o pmo.OID) {
	l := t.height(ctx, ctx.ROID(o, avlLeft))
	r := t.height(ctx, ctx.ROID(o, avlRight))
	h := l
	if r > h {
		h = r
	}
	h++
	if ctx.R8(o, avlHeight) != h {
		ctx.W8(o, avlHeight, h)
	}
}

func (t *AVL) balance(ctx *OpCtx, o pmo.OID) int64 {
	l := t.height(ctx, ctx.ROID(o, avlLeft))
	r := t.height(ctx, ctx.ROID(o, avlRight))
	return int64(l) - int64(r)
}

func (t *AVL) rotateRight(ctx *OpCtx, y pmo.OID) pmo.OID {
	x := ctx.ROID(y, avlLeft)
	t2 := ctx.ROID(x, avlRight)
	ctx.WOID(x, avlRight, y)
	ctx.WOID(y, avlLeft, t2)
	t.updateHeight(ctx, y)
	t.updateHeight(ctx, x)
	return x
}

func (t *AVL) rotateLeft(ctx *OpCtx, x pmo.OID) pmo.OID {
	y := ctx.ROID(x, avlRight)
	t2 := ctx.ROID(y, avlLeft)
	ctx.WOID(y, avlLeft, x)
	ctx.WOID(x, avlRight, t2)
	t.updateHeight(ctx, x)
	t.updateHeight(ctx, y)
	return y
}

func (t *AVL) rebalance(ctx *OpCtx, o pmo.OID) pmo.OID {
	t.updateHeight(ctx, o)
	bf := t.balance(ctx, o)
	switch {
	case bf > 1:
		l := ctx.ROID(o, avlLeft)
		if t.balance(ctx, l) < 0 {
			ctx.WOID(o, avlLeft, t.rotateLeft(ctx, l))
		}
		return t.rotateRight(ctx, o)
	case bf < -1:
		r := ctx.ROID(o, avlRight)
		if t.balance(ctx, r) > 0 {
			ctx.WOID(o, avlRight, t.rotateRight(ctx, r))
		}
		return t.rotateLeft(ctx, o)
	}
	return o
}

// Insert adds key (or refreshes its value in place on duplicates).
func (t *AVL) Insert(ctx *OpCtx, key uint64) error {
	old := t.root()
	nr, err := t.insertRec(ctx, old, key)
	if err != nil {
		return err
	}
	if nr != old {
		t.setRoot(ctx, nr)
	}
	return nil
}

func (t *AVL) insertRec(ctx *OpCtx, o pmo.OID, key uint64) (pmo.OID, error) {
	if o.IsNull() {
		return t.newNode(ctx, key)
	}
	k := ctx.R8(o, avlKey)
	switch {
	case key == k:
		ctx.WriteValue(o, avlHdr, key)
		return o, nil
	case key < k:
		l := ctx.ROID(o, avlLeft)
		nl, err := t.insertRec(ctx, l, key)
		if err != nil {
			return pmo.NullOID, err
		}
		if nl != l {
			ctx.WOID(o, avlLeft, nl)
		}
	default:
		r := ctx.ROID(o, avlRight)
		nr, err := t.insertRec(ctx, r, key)
		if err != nil {
			return pmo.NullOID, err
		}
		if nr != r {
			ctx.WOID(o, avlRight, nr)
		}
	}
	return t.rebalance(ctx, o), nil
}

// Delete removes key; a miss is a pure traversal.
func (t *AVL) Delete(ctx *OpCtx, key uint64) (bool, error) {
	old := t.root()
	nr, deleted, err := t.deleteRec(ctx, old, key)
	if err != nil {
		return false, err
	}
	if deleted && nr != old {
		t.setRoot(ctx, nr)
	}
	return deleted, nil
}

func (t *AVL) deleteRec(ctx *OpCtx, o pmo.OID, key uint64) (pmo.OID, bool, error) {
	if o.IsNull() {
		return o, false, nil
	}
	k := ctx.R8(o, avlKey)
	var deleted bool
	switch {
	case key < k:
		l := ctx.ROID(o, avlLeft)
		nl, del, err := t.deleteRec(ctx, l, key)
		if err != nil {
			return pmo.NullOID, false, err
		}
		deleted = del
		if nl != l {
			ctx.WOID(o, avlLeft, nl)
		}
	case key > k:
		r := ctx.ROID(o, avlRight)
		nr, del, err := t.deleteRec(ctx, r, key)
		if err != nil {
			return pmo.NullOID, false, err
		}
		deleted = del
		if nr != r {
			ctx.WOID(o, avlRight, nr)
		}
	default:
		l, r := ctx.ROID(o, avlLeft), ctx.ROID(o, avlRight)
		switch {
		case l.IsNull():
			if err := ctx.Free(o); err != nil {
				return pmo.NullOID, false, err
			}
			return r, true, nil
		case r.IsNull():
			if err := ctx.Free(o); err != nil {
				return pmo.NullOID, false, err
			}
			return l, true, nil
		default:
			// Two children: replace with the in-order successor.
			succ := r
			for {
				sl := ctx.ROID(succ, avlLeft)
				if sl.IsNull() {
					break
				}
				succ = sl
			}
			sk := ctx.R8(succ, avlKey)
			ctx.W8(o, avlKey, sk)
			val := ctx.ReadValue(succ, avlHdr)
			ctx.EnsureWrite(ctx.MP.ByOID(o))
			ctx.MP.ByOID(o).Write(o.Offset()+avlHdr, val)
			nr2, _, err := t.deleteRec(ctx, r, sk)
			if err != nil {
				return pmo.NullOID, false, err
			}
			if nr2 != r {
				ctx.WOID(o, avlRight, nr2)
			}
			deleted = true
		}
	}
	return t.rebalance(ctx, o), deleted, nil
}

// Keys returns the in-order key sequence (tests).
func (t *AVL) Keys(ctx *OpCtx) []uint64 {
	var out []uint64
	var walk func(o pmo.OID)
	walk = func(o pmo.OID) {
		if o.IsNull() {
			return
		}
		walk(ctx.ROID(o, avlLeft))
		out = append(out, ctx.R8(o, avlKey))
		walk(ctx.ROID(o, avlRight))
	}
	walk(t.root())
	return out
}

// Validate checks the AVL balance and BST invariants.
func (t *AVL) Validate(ctx *OpCtx) error {
	var check func(o pmo.OID, lo, hi uint64) (uint64, error)
	check = func(o pmo.OID, lo, hi uint64) (uint64, error) {
		if o.IsNull() {
			return 0, nil
		}
		k := ctx.R8(o, avlKey)
		if k <= lo || k >= hi {
			return 0, fmt.Errorf("avl: key %d violates BST bounds (%d,%d)", k, lo, hi)
		}
		lh, err := check(ctx.ROID(o, avlLeft), lo, k)
		if err != nil {
			return 0, err
		}
		rh, err := check(ctx.ROID(o, avlRight), k, hi)
		if err != nil {
			return 0, err
		}
		diff := int64(lh) - int64(rh)
		if diff < -1 || diff > 1 {
			return 0, fmt.Errorf("avl: node %d unbalanced (%d vs %d)", k, lh, rh)
		}
		h := lh
		if rh > h {
			h = rh
		}
		h++
		if got := ctx.R8(o, avlHeight); got != h {
			return 0, fmt.Errorf("avl: node %d stored height %d, computed %d", k, got, h)
		}
		return h, nil
	}
	_, err := check(t.root(), 0, ^uint64(0))
	return err
}
