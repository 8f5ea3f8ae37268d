package bincodec

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Hook is implemented, on the pointer, by a type whose stored form is
// not its memory form — a tree rebuilt on decode, a sparse list of a
// dense table, a value whose concrete type varies. The walker hands such
// a value to the hook instead of walking its fields.
type Hook interface {
	AppendTo(b []byte) []byte
	DecodeFrom(r *Reader) error
}

// Append appends the encoding of *v, where v is a non-nil pointer. The
// format is derived from the Go type, in a plan built once per type:
//
//   - bool and the 8/16/32/64-bit integer kinds, named or not, are
//     little-endian at fixed width; int and uint are always 8 bytes;
//   - a string is a u32 length and its bytes;
//   - an array is its elements, with no length;
//   - a slice is a u32 count and its elements;
//   - a map (integer keys only) is a u32 count and its entries in
//     ascending key order, so equal maps encode equally whatever their
//     insertion history;
//   - a struct is its fields in declaration order, unexported included;
//   - a pointer is a presence byte and, if non-nil, the pointee;
//   - a type whose pointer implements Hook is whatever its AppendTo
//     writes.
//
// Interfaces, floats, funcs and chans have no encoding: building a plan
// that reaches one panics. An empty slice decodes as nil; a map never
// does, so a decoded value's maps can be written into as they are.
func Append(b []byte, v any) []byte {
	t, p := target(v)
	return planFor(t).enc(b, p)
}

// Decode decodes a value written by Append into *v, where v is a non-nil
// pointer, and returns r.Err(). Every count is checked with Count against
// the smallest encoding of one element, so a length bomb fails with
// ErrCount before anything is allocated for it.
func Decode(r *Reader, v any) error {
	t, p := target(v)
	planFor(t).dec(r, p)
	return r.Err()
}

func target(v any) (reflect.Type, unsafe.Pointer) {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		panic(fmt.Sprintf("bincodec: %T is not a non-nil pointer", v))
	}
	return rv.Type().Elem(), rv.UnsafePointer()
}

// plan is the compiled codec of one type.
type plan struct {
	min int // size of the smallest encoding of one value
	enc func(b []byte, p unsafe.Pointer) []byte
	dec func(r *Reader, p unsafe.Pointer)

	// fixed marks a type made only of integers and bools: min is then
	// its exact encoded size and leaves lists them in encoding order.
	// packed further marks one whose memory is its encoding (little-endian
	// host, no padding, no bool), copied as it lies.
	fixed  bool
	packed bool
	leaves []leaf
}

// leaf is one integer of n bytes, or a bool, at a byte offset.
type leaf struct {
	off    uintptr
	n      uintptr
	isBool bool
}

var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

var hookType = reflect.TypeFor[Hook]()

var (
	plans   sync.Map // reflect.Type → *plan, complete plans only
	buildMu sync.Mutex
)

func planFor(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	buildMu.Lock()
	defer buildMu.Unlock()
	g := graph{}
	p := g.plan(t)
	for t, p := range g {
		plans.Store(t, p)
	}
	return p
}

// graph holds the plans of one type graph under construction, so a
// recursive type refers to its own plan.
type graph map[reflect.Type]*plan

func (g graph) plan(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	if p, ok := g[t]; ok {
		return p
	}
	p := &plan{}
	g[t] = p
	if reflect.PointerTo(t).Implements(hookType) {
		p.enc = func(b []byte, ptr unsafe.Pointer) []byte {
			return reflect.NewAt(t, ptr).Interface().(Hook).AppendTo(b)
		}
		p.dec = func(r *Reader, ptr unsafe.Pointer) {
			if err := reflect.NewAt(t, ptr).Interface().(Hook).DecodeFrom(r); err != nil {
				r.Fail(err)
			}
		}
		return p
	}
	switch t.Kind() {
	case reflect.Bool:
		p.addLeaf(leaf{n: 1, isBool: true})
	case reflect.Int, reflect.Uint:
		if t.Size() != 8 {
			panic(fmt.Sprintf("bincodec: %s is not 8 bytes on this host", t))
		}
		p.addLeaf(leaf{n: 8})
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		p.addLeaf(leaf{n: t.Size()})
	case reflect.String:
		p.min = 4
		p.enc = func(b []byte, ptr unsafe.Pointer) []byte { return Str(b, *(*string)(ptr)) }
		p.dec = func(r *Reader, ptr unsafe.Pointer) { *(*string)(ptr) = r.Str() }
	case reflect.Array:
		g.array(p, t)
	case reflect.Struct:
		g.structure(p, t)
	case reflect.Slice:
		g.slice(p, t)
	case reflect.Map:
		g.mapping(p, t)
	case reflect.Pointer:
		g.pointer(p, t)
	default:
		panic(fmt.Sprintf("bincodec: %s has no encoding (kind %s)", t, t.Kind()))
	}
	if p.fixed {
		next := uintptr(0)
		p.packed = littleEndian
		for _, l := range p.leaves {
			p.packed = p.packed && l.off == next && !l.isBool
			next = l.off + l.n
		}
		p.packed = p.packed && next == t.Size()
		p.fixedCodec()
	}
	return p
}

func (p *plan) fixedCodec() {
	p.enc = func(b []byte, ptr unsafe.Pointer) []byte { return p.appendN(b, ptr, 1, 0) }
	p.dec = func(r *Reader, ptr unsafe.Pointer) { p.decodeN(r, ptr, 1, 0) }
}

func (p *plan) addLeaf(l leaf) {
	p.fixed = true
	p.min += int(l.n)
	p.leaves = append(p.leaves, l)
}

// addFixed adds the leaves of the fixed layout q, placed at off.
func (p *plan) addFixed(q *plan, off uintptr) {
	p.fixed = true
	for _, l := range q.leaves {
		l.off += off
		p.addLeaf(l)
	}
}

func (g graph) array(p *plan, t reflect.Type) {
	e, n, stride := g.plan(t.Elem()), t.Len(), t.Elem().Size()
	if e.fixed || n == 0 {
		for i := 0; i < n; i++ {
			p.addFixed(e, uintptr(i)*stride)
		}
		p.fixed = true
		return
	}
	p.min = n * e.min
	p.enc = func(b []byte, ptr unsafe.Pointer) []byte { return e.appendN(b, ptr, n, stride) }
	p.dec = func(r *Reader, ptr unsafe.Pointer) { e.decodeN(r, ptr, n, stride) }
}

// structure plans a struct as steps: each run of consecutive fixed
// fields is one fixed step, every other field a step of its own.
func (g graph) structure(p *plan, t reflect.Type) {
	type step struct {
		off uintptr
		p   *plan
	}
	var steps []step
	run := &plan{}
	push := func(s step) {
		steps = append(steps, s)
		p.min += s.p.min
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if fp := g.plan(f.Type); fp.fixed {
			run.addFixed(fp, f.Offset)
		} else {
			if run.fixed {
				run.fixedCodec()
				push(step{0, run})
				run = &plan{}
			}
			push(step{f.Offset, fp})
		}
	}
	if len(steps) == 0 {
		*p = *run
		p.fixed = true
		return
	}
	if run.fixed {
		run.fixedCodec()
		push(step{0, run})
	}
	p.enc = func(b []byte, ptr unsafe.Pointer) []byte {
		for _, s := range steps {
			b = s.p.enc(b, unsafe.Add(ptr, s.off))
		}
		return b
	}
	p.dec = func(r *Reader, ptr unsafe.Pointer) {
		for _, s := range steps {
			s.p.dec(r, unsafe.Add(ptr, s.off))
		}
	}
}

func (g graph) slice(p *plan, t reflect.Type) {
	e, stride := g.plan(t.Elem()), t.Elem().Size()
	p.min = 4
	p.enc = func(b []byte, ptr unsafe.Pointer) []byte {
		s := reflect.NewAt(t, ptr).Elem()
		b = U32(b, uint32(s.Len()))
		return e.appendN(b, s.UnsafePointer(), s.Len(), stride)
	}
	p.dec = func(r *Reader, ptr unsafe.Pointer) {
		s := reflect.NewAt(t, ptr).Elem()
		s.SetZero()
		if n := r.Count(e.min); n > 0 {
			s.Grow(n) // MakeSlice would also allocate a header
			s.SetLen(n)
			e.decodeN(r, s.UnsafePointer(), n, stride)
		}
	}
}

// mapWork is the reusable state of one map encode or decode: an
// iterator and addressable key and value temporaries, so neither path
// allocates per entry, plus the encoder's entries to sort. Each map plan
// caches one; a concurrent user that finds it taken builds its own.
type mapWork struct {
	it   reflect.MapIter
	k, v reflect.Value
	buf  []byte
	ents []mapEnt
}

type mapEnt struct {
	key      uint64 // sign bit flipped for signed keys: sorts as the key does
	from, to int
}

func (g graph) mapping(p *plan, t reflect.Type) {
	kt, vt := t.Key(), t.Elem()
	var sortKey func(reflect.Value) uint64
	switch kt.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		sortKey = func(k reflect.Value) uint64 { return uint64(k.Int()) ^ 1<<63 }
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		sortKey = func(k reflect.Value) uint64 { return k.Uint() }
	default:
		panic(fmt.Sprintf("bincodec: %s has no encoding (map keys must be integers)", t))
	}
	kp, vp := g.plan(kt), g.plan(vt)
	var cached atomic.Pointer[mapWork]
	take := func() *mapWork {
		if s := cached.Swap(nil); s != nil {
			return s
		}
		return &mapWork{k: reflect.New(kt).Elem(), v: reflect.New(vt).Elem()}
	}
	release := func(s *mapWork) {
		s.it.Reset(reflect.Value{})
		s.v.SetZero() // drop references into the map just walked
		s.buf, s.ents = s.buf[:0], s.ents[:0]
		cached.Store(s)
	}
	p.min = 4
	p.enc = func(b []byte, ptr unsafe.Pointer) []byte {
		m := reflect.NewAt(t, ptr).Elem()
		if b = U32(b, uint32(m.Len())); m.Len() == 0 {
			return b
		}
		s := take()
		kptr, vptr := s.k.Addr().UnsafePointer(), s.v.Addr().UnsafePointer()
		for s.it.Reset(m); s.it.Next(); {
			s.k.SetIterKey(&s.it)
			s.v.SetIterValue(&s.it)
			from := len(s.buf)
			s.buf = vp.enc(kp.enc(s.buf, kptr), vptr)
			s.ents = append(s.ents, mapEnt{sortKey(s.k), from, len(s.buf)})
		}
		slices.SortFunc(s.ents, func(a, b mapEnt) int { return cmp.Compare(a.key, b.key) })
		for _, e := range s.ents {
			b = append(b, s.buf[e.from:e.to]...)
		}
		release(s)
		return b
	}
	p.dec = func(r *Reader, ptr unsafe.Pointer) {
		m := reflect.NewAt(t, ptr).Elem()
		n := r.Count(kp.min + vp.min)
		m.Set(reflect.MakeMapWithSize(t, n))
		if n == 0 {
			return
		}
		s := take()
		kptr, vptr := s.k.Addr().UnsafePointer(), s.v.Addr().UnsafePointer()
		for i := 0; i < n && r.err == nil; i++ {
			kp.dec(r, kptr)
			vp.dec(r, vptr)
			m.SetMapIndex(s.k, s.v)
		}
		release(s)
	}
}

func (g graph) pointer(p *plan, t reflect.Type) {
	e := g.plan(t.Elem())
	p.min = 1
	p.enc = func(b []byte, ptr unsafe.Pointer) []byte {
		if q := *(*unsafe.Pointer)(ptr); q != nil {
			return e.enc(append(b, 1), q)
		}
		return append(b, 0)
	}
	p.dec = func(r *Reader, ptr unsafe.Pointer) {
		*(*unsafe.Pointer)(ptr) = nil
		if r.Bool() {
			q := reflect.New(t.Elem()).UnsafePointer()
			*(*unsafe.Pointer)(ptr) = q
			e.dec(r, q)
		}
	}
}

// appendN appends n values laid out stride bytes apart from p. A fixed
// layout grows b once and moves its leaves, with no call per field.
func (pl *plan) appendN(b []byte, p unsafe.Pointer, n int, stride uintptr) []byte {
	if !pl.fixed {
		for i := 0; i < n; i++ {
			b = pl.enc(b, unsafe.Add(p, uintptr(i)*stride))
		}
		return b
	}
	if pl.packed {
		return append(b, unsafe.Slice((*byte)(p), n*pl.min)...)
	}
	j := len(b)
	b = slices.Grow(b, n*pl.min)[:j+n*pl.min]
	for i := 0; i < n; i++ {
		e := unsafe.Add(p, uintptr(i)*stride)
		for _, l := range pl.leaves {
			q := unsafe.Add(e, l.off)
			switch l.n {
			case 1:
				b[j] = *(*byte)(q)
			case 2:
				binary.LittleEndian.PutUint16(b[j:], binary.NativeEndian.Uint16(unsafe.Slice((*byte)(q), 2)))
			case 4:
				binary.LittleEndian.PutUint32(b[j:], binary.NativeEndian.Uint32(unsafe.Slice((*byte)(q), 4)))
			case 8:
				binary.LittleEndian.PutUint64(b[j:], binary.NativeEndian.Uint64(unsafe.Slice((*byte)(q), 8)))
			}
			j += int(l.n)
		}
	}
	return b
}

// decodeN decodes n values into memory laid out stride bytes apart from p.
func (pl *plan) decodeN(r *Reader, p unsafe.Pointer, n int, stride uintptr) {
	if !pl.fixed {
		for i := 0; i < n && r.err == nil; i++ {
			pl.dec(r, unsafe.Add(p, uintptr(i)*stride))
		}
		return
	}
	in := r.Take(n * pl.min)
	if r.err != nil {
		return
	}
	if pl.packed {
		copy(unsafe.Slice((*byte)(p), len(in)), in)
		return
	}
	j := 0
	for i := 0; i < n; i++ {
		e := unsafe.Add(p, uintptr(i)*stride)
		for _, l := range pl.leaves {
			q := unsafe.Add(e, l.off)
			switch l.n {
			case 1:
				if *(*byte)(q) = in[j]; l.isBool {
					*(*byte)(q) = min(in[j], 1) // a bool's memory must hold 0 or 1
				}
			case 2:
				binary.NativeEndian.PutUint16(unsafe.Slice((*byte)(q), 2), binary.LittleEndian.Uint16(in[j:]))
			case 4:
				binary.NativeEndian.PutUint32(unsafe.Slice((*byte)(q), 4), binary.LittleEndian.Uint32(in[j:]))
			case 8:
				binary.NativeEndian.PutUint64(unsafe.Slice((*byte)(q), 8), binary.LittleEndian.Uint64(in[j:]))
			}
			j += int(l.n)
		}
	}
}
