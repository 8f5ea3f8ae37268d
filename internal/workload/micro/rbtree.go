package micro

import (
	"fmt"

	"domainvirt/internal/pmo"
)

// Red-black node layout: key u64, left OID, right OID, parent OID,
// color u64 (0 black, 1 red), then the value payload.
const (
	rbKey    = 0
	rbLeft   = 8
	rbRight  = 16
	rbParent = 24
	rbColor  = 32
	rbHdr    = 40

	rbBlack = 0
	rbRed   = 1
)

// RBT is a persistent red-black tree (CLRS formulation with an explicit
// sentinel NIL node in the home pool). The root OID lives in the home
// pool's root slot.
type RBT struct {
	home     *pmo.Pool
	nilNode  pmo.OID
	nodeSize uint64
}

// NewRBT returns an empty red-black tree whose root pointer and sentinel
// live in home.
func NewRBT(ctx *OpCtx, home *pmo.Pool) (*RBT, error) {
	t := &RBT{home: home, nodeSize: rbHdr + uint64(ctx.Env.P.ValueSize)}
	ctx.EnsureWrite(home)
	sentinel, err := home.Alloc(rbHdr)
	if err != nil {
		return nil, err
	}
	ctx.W8(sentinel, rbColor, rbBlack)
	ctx.WOID(sentinel, rbLeft, sentinel)
	ctx.WOID(sentinel, rbRight, sentinel)
	ctx.WOID(sentinel, rbParent, sentinel)
	t.nilNode = sentinel
	home.SetRoot(sentinel)
	ctx.End()
	return t, nil
}

func (t *RBT) isNil(o pmo.OID) bool { return o == t.nilNode }

func (t *RBT) root() pmo.OID { return t.home.Root() }

func (t *RBT) setRoot(ctx *OpCtx, o pmo.OID) {
	ctx.EnsureWrite(t.home)
	t.home.SetRoot(o)
}

func (t *RBT) color(ctx *OpCtx, o pmo.OID) uint64 { return ctx.R8(o, rbColor) }

func (t *RBT) setColor(ctx *OpCtx, o pmo.OID, c uint64) {
	if ctx.R8(o, rbColor) != c {
		ctx.W8(o, rbColor, c)
	}
}

func (t *RBT) newNode(ctx *OpCtx, key uint64) (pmo.OID, error) {
	o, err := ctx.Alloc(t.nodeSize)
	if err != nil {
		return pmo.NullOID, err
	}
	ctx.W8(o, rbKey, key)
	ctx.WOID(o, rbLeft, t.nilNode)
	ctx.WOID(o, rbRight, t.nilNode)
	ctx.WOID(o, rbParent, t.nilNode)
	ctx.W8(o, rbColor, rbRed)
	ctx.WriteValue(o, rbHdr, key)
	return o, nil
}

func (t *RBT) leftRotate(ctx *OpCtx, x pmo.OID) {
	y := ctx.ROID(x, rbRight)
	yl := ctx.ROID(y, rbLeft)
	ctx.WOID(x, rbRight, yl)
	if !t.isNil(yl) {
		ctx.WOID(yl, rbParent, x)
	}
	xp := ctx.ROID(x, rbParent)
	ctx.WOID(y, rbParent, xp)
	switch {
	case t.isNil(xp):
		t.setRoot(ctx, y)
	case x == ctx.ROID(xp, rbLeft):
		ctx.WOID(xp, rbLeft, y)
	default:
		ctx.WOID(xp, rbRight, y)
	}
	ctx.WOID(y, rbLeft, x)
	ctx.WOID(x, rbParent, y)
}

func (t *RBT) rightRotate(ctx *OpCtx, x pmo.OID) {
	y := ctx.ROID(x, rbLeft)
	yr := ctx.ROID(y, rbRight)
	ctx.WOID(x, rbLeft, yr)
	if !t.isNil(yr) {
		ctx.WOID(yr, rbParent, x)
	}
	xp := ctx.ROID(x, rbParent)
	ctx.WOID(y, rbParent, xp)
	switch {
	case t.isNil(xp):
		t.setRoot(ctx, y)
	case x == ctx.ROID(xp, rbRight):
		ctx.WOID(xp, rbRight, y)
	default:
		ctx.WOID(xp, rbLeft, y)
	}
	ctx.WOID(y, rbRight, x)
	ctx.WOID(x, rbParent, y)
}

// Insert adds key (updating the value in place on duplicates).
func (t *RBT) Insert(ctx *OpCtx, key uint64) error {
	y := t.nilNode
	x := t.root()
	for !t.isNil(x) {
		y = x
		k := ctx.R8(x, rbKey)
		switch {
		case key == k:
			ctx.WriteValue(x, rbHdr, key)
			return nil
		case key < k:
			x = ctx.ROID(x, rbLeft)
		default:
			x = ctx.ROID(x, rbRight)
		}
	}
	z, err := t.newNode(ctx, key)
	if err != nil {
		return err
	}
	ctx.WOID(z, rbParent, y)
	switch {
	case t.isNil(y):
		t.setRoot(ctx, z)
	case key < ctx.R8(y, rbKey):
		ctx.WOID(y, rbLeft, z)
	default:
		ctx.WOID(y, rbRight, z)
	}
	t.insertFixup(ctx, z)
	return nil
}

func (t *RBT) insertFixup(ctx *OpCtx, z pmo.OID) {
	for {
		zp := ctx.ROID(z, rbParent)
		if t.isNil(zp) || t.color(ctx, zp) != rbRed {
			break
		}
		zpp := ctx.ROID(zp, rbParent)
		if zp == ctx.ROID(zpp, rbLeft) {
			y := ctx.ROID(zpp, rbRight)
			if t.color(ctx, y) == rbRed {
				t.setColor(ctx, zp, rbBlack)
				t.setColor(ctx, y, rbBlack)
				t.setColor(ctx, zpp, rbRed)
				z = zpp
				continue
			}
			if z == ctx.ROID(zp, rbRight) {
				z = zp
				t.leftRotate(ctx, z)
				zp = ctx.ROID(z, rbParent)
				zpp = ctx.ROID(zp, rbParent)
			}
			t.setColor(ctx, zp, rbBlack)
			t.setColor(ctx, zpp, rbRed)
			t.rightRotate(ctx, zpp)
		} else {
			y := ctx.ROID(zpp, rbLeft)
			if t.color(ctx, y) == rbRed {
				t.setColor(ctx, zp, rbBlack)
				t.setColor(ctx, y, rbBlack)
				t.setColor(ctx, zpp, rbRed)
				z = zpp
				continue
			}
			if z == ctx.ROID(zp, rbLeft) {
				z = zp
				t.rightRotate(ctx, z)
				zp = ctx.ROID(z, rbParent)
				zpp = ctx.ROID(zp, rbParent)
			}
			t.setColor(ctx, zp, rbBlack)
			t.setColor(ctx, zpp, rbRed)
			t.leftRotate(ctx, zpp)
		}
	}
	t.setColor(ctx, t.root(), rbBlack)
}

func (t *RBT) transplant(ctx *OpCtx, u, v pmo.OID) {
	up := ctx.ROID(u, rbParent)
	switch {
	case t.isNil(up):
		t.setRoot(ctx, v)
	case u == ctx.ROID(up, rbLeft):
		ctx.WOID(up, rbLeft, v)
	default:
		ctx.WOID(up, rbRight, v)
	}
	ctx.WOID(v, rbParent, up)
}

func (t *RBT) minimum(ctx *OpCtx, o pmo.OID) pmo.OID {
	for {
		l := ctx.ROID(o, rbLeft)
		if t.isNil(l) {
			return o
		}
		o = l
	}
}

// Search returns the node with key, or the sentinel.
func (t *RBT) Search(ctx *OpCtx, key uint64) pmo.OID {
	x := t.root()
	for !t.isNil(x) {
		k := ctx.R8(x, rbKey)
		switch {
		case key == k:
			return x
		case key < k:
			x = ctx.ROID(x, rbLeft)
		default:
			x = ctx.ROID(x, rbRight)
		}
	}
	return t.nilNode
}

// Delete removes key; a miss is a pure traversal.
func (t *RBT) Delete(ctx *OpCtx, key uint64) (bool, error) {
	z := t.Search(ctx, key)
	if t.isNil(z) {
		return false, nil
	}
	y := z
	yColor := t.color(ctx, y)
	var x pmo.OID
	switch {
	case t.isNil(ctx.ROID(z, rbLeft)):
		x = ctx.ROID(z, rbRight)
		t.transplant(ctx, z, x)
	case t.isNil(ctx.ROID(z, rbRight)):
		x = ctx.ROID(z, rbLeft)
		t.transplant(ctx, z, x)
	default:
		y = t.minimum(ctx, ctx.ROID(z, rbRight))
		yColor = t.color(ctx, y)
		x = ctx.ROID(y, rbRight)
		if ctx.ROID(y, rbParent) == z {
			ctx.WOID(x, rbParent, y)
		} else {
			t.transplant(ctx, y, x)
			zr := ctx.ROID(z, rbRight)
			ctx.WOID(y, rbRight, zr)
			ctx.WOID(zr, rbParent, y)
		}
		t.transplant(ctx, z, y)
		zl := ctx.ROID(z, rbLeft)
		ctx.WOID(y, rbLeft, zl)
		ctx.WOID(zl, rbParent, y)
		t.setColor(ctx, y, t.color(ctx, z))
	}
	if err := ctx.Free(z); err != nil {
		return false, err
	}
	if yColor == rbBlack {
		t.deleteFixup(ctx, x)
	}
	return true, nil
}

func (t *RBT) deleteFixup(ctx *OpCtx, x pmo.OID) {
	for x != t.root() && t.color(ctx, x) == rbBlack {
		xp := ctx.ROID(x, rbParent)
		if x == ctx.ROID(xp, rbLeft) {
			w := ctx.ROID(xp, rbRight)
			if t.color(ctx, w) == rbRed {
				t.setColor(ctx, w, rbBlack)
				t.setColor(ctx, xp, rbRed)
				t.leftRotate(ctx, xp)
				w = ctx.ROID(xp, rbRight)
			}
			if t.color(ctx, ctx.ROID(w, rbLeft)) == rbBlack && t.color(ctx, ctx.ROID(w, rbRight)) == rbBlack {
				t.setColor(ctx, w, rbRed)
				x = xp
				continue
			}
			if t.color(ctx, ctx.ROID(w, rbRight)) == rbBlack {
				t.setColor(ctx, ctx.ROID(w, rbLeft), rbBlack)
				t.setColor(ctx, w, rbRed)
				t.rightRotate(ctx, w)
				w = ctx.ROID(xp, rbRight)
			}
			t.setColor(ctx, w, t.color(ctx, xp))
			t.setColor(ctx, xp, rbBlack)
			t.setColor(ctx, ctx.ROID(w, rbRight), rbBlack)
			t.leftRotate(ctx, xp)
			x = t.root()
		} else {
			w := ctx.ROID(xp, rbLeft)
			if t.color(ctx, w) == rbRed {
				t.setColor(ctx, w, rbBlack)
				t.setColor(ctx, xp, rbRed)
				t.rightRotate(ctx, xp)
				w = ctx.ROID(xp, rbLeft)
			}
			if t.color(ctx, ctx.ROID(w, rbRight)) == rbBlack && t.color(ctx, ctx.ROID(w, rbLeft)) == rbBlack {
				t.setColor(ctx, w, rbRed)
				x = xp
				continue
			}
			if t.color(ctx, ctx.ROID(w, rbLeft)) == rbBlack {
				t.setColor(ctx, ctx.ROID(w, rbRight), rbBlack)
				t.setColor(ctx, w, rbRed)
				t.leftRotate(ctx, w)
				w = ctx.ROID(xp, rbLeft)
			}
			t.setColor(ctx, w, t.color(ctx, xp))
			t.setColor(ctx, xp, rbBlack)
			t.setColor(ctx, ctx.ROID(w, rbLeft), rbBlack)
			t.rightRotate(ctx, xp)
			x = t.root()
		}
	}
	t.setColor(ctx, x, rbBlack)
}

// Keys returns the in-order key sequence (tests).
func (t *RBT) Keys(ctx *OpCtx) []uint64 {
	var out []uint64
	var walk func(o pmo.OID)
	walk = func(o pmo.OID) {
		if t.isNil(o) {
			return
		}
		walk(ctx.ROID(o, rbLeft))
		out = append(out, ctx.R8(o, rbKey))
		walk(ctx.ROID(o, rbRight))
	}
	walk(t.root())
	return out
}

// Validate checks the red-black invariants: BST order, no red node with a
// red child, equal black height on every path.
func (t *RBT) Validate(ctx *OpCtx) error {
	root := t.root()
	if !t.isNil(root) && t.color(ctx, root) != rbBlack {
		return fmt.Errorf("rbt: root is red")
	}
	var check func(o pmo.OID, lo, hi uint64) (int, error)
	check = func(o pmo.OID, lo, hi uint64) (int, error) {
		if t.isNil(o) {
			return 1, nil
		}
		k := ctx.R8(o, rbKey)
		if k <= lo || k >= hi {
			return 0, fmt.Errorf("rbt: key %d violates BST bounds (%d,%d)", k, lo, hi)
		}
		c := t.color(ctx, o)
		if c == rbRed {
			if t.color(ctx, ctx.ROID(o, rbLeft)) == rbRed || t.color(ctx, ctx.ROID(o, rbRight)) == rbRed {
				return 0, fmt.Errorf("rbt: red node %d has a red child", k)
			}
		}
		lb, err := check(ctx.ROID(o, rbLeft), lo, k)
		if err != nil {
			return 0, err
		}
		rb, err := check(ctx.ROID(o, rbRight), k, hi)
		if err != nil {
			return 0, err
		}
		if lb != rb {
			return 0, fmt.Errorf("rbt: node %d black-height mismatch (%d vs %d)", k, lb, rb)
		}
		if c == rbBlack {
			lb++
		}
		return lb, nil
	}
	_, err := check(root, 0, ^uint64(0))
	return err
}
