package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"domainvirt/internal/core"
	"domainvirt/internal/memlayout"
)

// recording captures a replayable event log for comparison.
type recording struct {
	events []string
	items  []interface{}
}

type accessEv struct {
	th    core.ThreadID
	va    memlayout.VA
	size  uint32
	write bool
}
type instrEv struct {
	th core.ThreadID
	n  uint64
}
type setPermEv struct {
	th   core.ThreadID
	d    core.DomainID
	p    core.Perm
	site core.SiteID
}
type attachEv struct {
	d    core.DomainID
	r    memlayout.Region
	perm core.Perm
}

func (r *recording) Instr(th core.ThreadID, n uint64) { r.items = append(r.items, instrEv{th, n}) }
func (r *recording) Access(th core.ThreadID, va memlayout.VA, size uint32, write bool) bool {
	r.items = append(r.items, accessEv{th, va, size, write})
	return true
}
func (r *recording) Fetch(th core.ThreadID, va memlayout.VA) bool {
	r.items = append(r.items, [2]uint64{uint64(th), uint64(va)})
	return true
}
func (r *recording) SetPerm(th core.ThreadID, d core.DomainID, p core.Perm, site core.SiteID) {
	r.items = append(r.items, setPermEv{th, d, p, site})
}
func (r *recording) Attach(d core.DomainID, reg memlayout.Region, p core.Perm) error {
	r.items = append(r.items, attachEv{d, reg, p})
	return nil
}
func (r *recording) Detach(d core.DomainID) { r.items = append(r.items, d) }
func (r *recording) Fence(th core.ThreadID) { r.items = append(r.items, th) }

func emitRandom(t *testing.T, sink Sink, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	if err := sink.Attach(1, memlayout.Region{Base: 1 << 30, Size: 8 << 20}, core.PermRW); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		th := core.ThreadID(1 + rng.Intn(3))
		switch rng.Intn(5) {
		case 0:
			sink.Instr(th, uint64(rng.Intn(10000)))
		case 1:
			sink.Access(th, memlayout.VA(1<<30+rng.Intn(1<<23)), uint32(rng.Intn(64)+1), rng.Intn(2) == 0)
		case 2:
			sink.SetPerm(th, 1, core.Perm(rng.Intn(3)), core.SiteID(rng.Intn(5)))
		case 3:
			sink.Fetch(th, memlayout.VA(1<<30+rng.Intn(1<<23)))
		default:
			sink.Fence(th)
		}
	}
	sink.Detach(1)
}

func TestFileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var want recording
	emitRandom(t, NewTee(w, &want), 11, 500)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got recording
	n, err := Replay(&buf, &got)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no events replayed")
	}
	if !reflect.DeepEqual(want.items, got.items) {
		t.Fatalf("replay diverges: %d vs %d events", len(want.items), len(got.items))
	}
}

func TestReplayRejectsGarbage(t *testing.T) {
	if _, err := Replay(bytes.NewReader([]byte("not a trace")), Discard{}); err == nil {
		t.Error("garbage accepted")
	}
	// Truncation (missing end marker) is detected.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Instr(1, 5)
	// No Close: flush without the end marker to simulate truncation.
	w.flush()
	if _, err := Replay(&buf, Discard{}); err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	emitRandom(t, &c, 3, 200)
	if c.Attaches != 1 || c.Detaches != 1 {
		t.Errorf("attach/detach = %d/%d", c.Attaches, c.Detaches)
	}
	if c.Loads+c.Stores+c.SetPerms+c.Fences == 0 {
		t.Error("no events counted")
	}
	Load(&c, 1, 0x1000, 8)
	Store(&c, 1, 0x1000, 8)
	if c.Loads == 0 || c.Stores == 0 {
		t.Error("Load/Store helpers broken")
	}
}

func TestTeeFansOut(t *testing.T) {
	var a, b Counter
	tee := NewTee(&a, &b)
	tee.Instr(1, 10)
	tee.Access(1, 0x1000, 8, true)
	if a.Instrs != 10 || b.Instrs != 10 || a.Stores != 1 || b.Stores != 1 {
		t.Error("tee did not fan out")
	}
}
