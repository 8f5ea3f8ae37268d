package bincodec

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

type level int8

type cell struct {
	Tag   uint64
	state uint8
}

type bucket struct {
	cells []cell
	marks []bool
	label string
}

// sparse is a hook type: its eight slots are stored as a list of the
// non-zero ones, the way the page table stores its PTEs.
type sparse struct{ slots [8]uint16 }

func (s *sparse) AppendTo(b []byte) []byte {
	at := len(b)
	b = append(b, 0)
	for i, v := range s.slots {
		if v != 0 {
			b = U32(append(b, uint8(i)), uint32(v))
			b[at]++
		}
	}
	return b
}

func (s *sparse) DecodeFrom(r *Reader) error {
	*s = sparse{}
	for n := r.U8(); n > 0; n-- {
		i := r.U8()
		if i >= uint8(len(s.slots)) {
			return fmt.Errorf("slot %d out of range", i)
		}
		s.slots[i] = uint16(r.U32())
	}
	return nil
}

// scalars holds every fixed-width kind.
type scalars struct {
	On  bool
	Lvl level
	I16 int16
	I32 int32
	I64 int64
	N   int
	U   uint
	U8  uint8
	U16 uint16
	Arr [3]int32
}

// allKinds holds every kind the walker encodes.
type allKinds struct {
	scalars
	Name    string
	Nil     *cell
	Ptr     *cell
	Buckets map[int32]bucket
	Set     map[uint64]struct{}
	Hook    sparse
	HookPtr *sparse
	Nested  [][2]uint16
}

func sample() allKinds {
	return allKinds{
		scalars: scalars{
			On: true, Lvl: -3, I16: -300, I32: -70000, I64: -1 << 40, N: -5, U: 1 << 40,
			U8: 200, U16: 65000, Arr: [3]int32{-1, 0, 1},
		},
		Name: "dtt",
		Ptr:  &cell{Tag: 7, state: 2},
		Buckets: map[int32]bucket{
			-2: {cells: []cell{{1, 1}, {2, 3}}, marks: []bool{true, false}, label: "neg"},
			9:  {marks: []bool{false}},
			0:  {cells: []cell{{5, 0}}},
		},
		Set:     map[uint64]struct{}{3: {}, 1 << 63: {}, 0: {}},
		Hook:    sparse{slots: [8]uint16{0, 4, 0, 0, 0, 0, 9, 0}},
		HookPtr: &sparse{slots: [8]uint16{1}},
		Nested:  [][2]uint16{{1, 2}, {3, 4}},
	}
}

// TestWalkerRoundTrip pins the derived format's contract on one struct
// of every supported kind: a value decodes to an equal value, re-encodes
// to the same bytes, and a map encodes the same whatever the order its
// entries were inserted (and deleted) in.
func TestWalkerRoundTrip(t *testing.T) {
	v := sample()
	data := Append(nil, &v)
	var got allKinds
	if err := Decode(NewReader(data), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("round trip changed the value:\n got %+v\nwant %+v", got, v)
	}
	if again := Append(nil, &got); !bytes.Equal(again, data) {
		t.Error("re-encoding the decoded value gave different bytes")
	}

	// The same map contents reached by another insertion history.
	w := sample()
	w.Buckets = map[int32]bucket{}
	for k := int32(-40); k < 40; k++ {
		w.Buckets[k] = bucket{label: "gone"}
	}
	for k := int32(-40); k < 40; k++ {
		delete(w.Buckets, k)
	}
	for _, k := range []int32{9, 0, -2} {
		w.Buckets[k] = v.Buckets[k]
	}
	if !bytes.Equal(Append(nil, &w), data) {
		t.Error("map encoding depends on insertion history")
	}

	// Every truncation fails cleanly.
	for n := 0; n < len(data); n++ {
		var cut allKinds
		if err := Decode(NewReader(data[:n]), &cut); err == nil {
			t.Fatalf("decoding a %d-byte prefix of %d succeeded", n, len(data))
		}
	}
}

// TestWalkerPerLeafPath checks the per-leaf moves, which every layout
// takes on a big-endian host, against the packed copy that a layout with
// no padding and no bool takes here.
func TestWalkerPerLeafPath(t *testing.T) {
	type words struct {
		I16 int16
		U16 uint16
		I32 int32
		I64 int64
		N   int
		Arr [2]uint32
	}
	type perLeaf words
	littleEndian = false
	p := planFor(reflect.TypeFor[perLeaf]())
	littleEndian = true
	if p.packed || !planFor(reflect.TypeFor[words]()).packed {
		t.Fatal("want the per-leaf plan unpacked and the reference plan packed")
	}
	ref := []words{{I16: -2, U16: 258, I32: -70000, I64: 1 << 50, N: -7, Arr: [2]uint32{1, 1 << 31}}, {}}
	vals := []perLeaf{perLeaf(ref[0]), perLeaf(ref[1])}
	want := Append(nil, &ref)
	if got := Append(nil, &vals); !bytes.Equal(got, want) {
		t.Fatal("per-leaf encoding differs from the packed encoding")
	}
	var back []perLeaf
	if err := Decode(NewReader(want), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, vals) {
		t.Fatalf("per-leaf decode changed the values:\n got %+v\nwant %+v", back, vals)
	}
}

func TestWalkerUnsupportedTypesPanic(t *testing.T) {
	cases := map[string]any{
		"interface field": &struct {
			A int
			B any
		}{},
		"float field":     &struct{ F float64 }{},
		"string map key":  &map[string]int{},
		"func in a slice": &[]func(){},
		"chan pointer":    &struct{ C *chan int }{},
	}
	for name, v := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("building the plan of %T did not panic", v)
				}
			}()
			Append(nil, v)
		})
	}
}

// TestWalkerLengthBomb: an inner count far past the input fails with
// ErrCount before the walker allocates for it.
func TestWalkerLengthBomb(t *testing.T) {
	type inner struct{ Vals []uint64 }
	type outer struct{ Items []inner }
	data := U32(nil, 1)          // one item
	data = U32(data, 1<<31-1)    // holding 2^31-1 values
	data = append(data, 1, 2, 3) // of which three bytes are present
	var (
		v   outer
		r   Reader
		err error
	)
	allocs := testing.AllocsPerRun(20, func() {
		v, r = outer{}, Reader{b: data}
		err = Decode(&r, &v)
	})
	if !errors.Is(err, ErrCount) {
		t.Fatalf("got %v, want ErrCount", err)
	}
	if allocs > 2 {
		t.Errorf("length bomb cost %.0f allocations, want at most 2", allocs)
	}
}

// TestWalkerEmptyMapDecodesNonNil: a decoded map can be written into
// whether or not it held entries, while an empty slice decodes as nil.
func TestWalkerEmptyMapDecodesNonNil(t *testing.T) {
	var v, got allKinds
	if err := Decode(NewReader(Append(nil, &v)), &got); err != nil {
		t.Fatal(err)
	}
	if got.Buckets == nil || got.Set == nil {
		t.Error("an empty map decoded as nil")
	}
	if got.Nested != nil {
		t.Error("an empty slice decoded non-nil")
	}
}

// TestWalkerConcurrentPlans builds and uses plans from many goroutines
// at once, as a grid's workers do; run it under -race.
func TestWalkerConcurrentPlans(t *testing.T) {
	type fresh struct {
		A map[uint16][]cell
		B *bucket
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := fresh{A: map[uint16][]cell{uint16(g): {{uint64(g), 1}}}, B: &bucket{label: "x"}}
			var got fresh
			if err := Decode(NewReader(Append(nil, &v)), &got); err != nil || !reflect.DeepEqual(got, v) {
				t.Errorf("goroutine %d: %v, %+v", g, err, got)
			}
		}()
	}
	wg.Wait()
}
