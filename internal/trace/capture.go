package trace

import (
	"io"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"domainvirt/internal/core"
	"domainvirt/internal/memlayout"
)

// captureChunkSize is the unit of hand-off from the event producer to
// the background flusher. Encoding stays in-memory until a chunk fills,
// so the producer (the serve shard, under its lock) never touches the
// filesystem.
const captureChunkSize = 32 << 10

// CaptureOptions configures a Capture sink.
type CaptureOptions struct {
	// Open opens the writer for segment seg (0-based). It is called
	// lazily by the background flusher when the segment's first bytes
	// arrive, so an idle capture never creates a file.
	Open func(seg int) (io.WriteCloser, error)
	// MaxSegmentBytes rotates to a new segment once the current one
	// holds at least this many encoded bytes. Each segment is an
	// independently replayable trace file: rotation re-emits the live
	// attach table and every open permission window at the head of the
	// new segment. 0 disables rotation.
	MaxSegmentBytes int64
	// BufferBytes bounds encoded-but-unflushed bytes. Past the bound,
	// data events (instr, load/store, fetch, fence) are dropped and
	// counted; control events (attach, detach, setperm) are always
	// kept so the stream stays structurally valid for replay.
	// Default 1 MiB.
	BufferBytes int
}

// CaptureStats is a point-in-time snapshot of a Capture's counters.
type CaptureStats struct {
	Events   uint64 // events encoded into the stream
	Dropped  uint64 // data events dropped by backpressure
	Bytes    uint64 // encoded bytes handed to the flusher
	Segments int    // segments started
}

type captureMsg struct {
	data   []byte
	rotate bool // close the current segment after writing data
}

type captureAttach struct {
	r    memlayout.Region
	perm core.Perm
}

type captureWindow struct {
	perm core.Perm
	site core.SiteID
}

// Capture is a Sink that records live traffic to the binary trace
// format with bounded buffering, event-granularity drop-counting, and
// segment rotation. It is the serve daemon's shard tee: event methods
// are intended to be called by one producer at a time (the shard lock
// already serializes them; a mutex keeps the type safe standalone) and
// all filesystem work happens on a background flusher goroutine, so
// capture never blocks the request path on disk.
//
// Capture is passive: Access and Fetch always permit (verdicts come
// from the enforcing sink in the same Tee), and I/O errors are sticky
// and silent — check Err — rather than failing live requests.
type Capture struct {
	opts CaptureOptions

	mu       sync.Mutex
	enc      encoder // the current chunk
	segBytes int64
	seg      int
	closed   bool
	attached map[core.DomainID]captureAttach
	windows  map[core.ThreadID]map[core.DomainID]captureWindow

	buffered atomic.Int64 // bytes encoded but not yet written
	events   atomic.Uint64
	dropped  atomic.Uint64
	bytes    atomic.Uint64
	segments atomic.Int64

	err  atomic.Pointer[error]
	ch   chan captureMsg
	done chan struct{}
}

// NewCapture starts a capture over opts.Open. Close must be called to
// flush the end marker and join the flusher.
func NewCapture(opts CaptureOptions) *Capture {
	if opts.BufferBytes <= 0 {
		opts.BufferBytes = 1 << 20
	}
	depth := opts.BufferBytes / captureChunkSize
	if depth < 4 {
		depth = 4
	}
	c := &Capture{
		opts:     opts,
		enc:      newEncoder(make([]byte, 0, captureChunkSize)),
		attached: make(map[core.DomainID]captureAttach),
		windows:  make(map[core.ThreadID]map[core.DomainID]captureWindow),
		ch:       make(chan captureMsg, depth),
		done:     make(chan struct{}),
	}
	c.segments.Store(1)
	go c.flusher()
	return c
}

// Err returns the first flusher error, if any.
func (c *Capture) Err() error {
	if p := c.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Stats snapshots the capture counters.
func (c *Capture) Stats() CaptureStats {
	return CaptureStats{
		Events:   c.events.Load(),
		Dropped:  c.dropped.Load(),
		Bytes:    c.bytes.Load(),
		Segments: int(c.segments.Load()),
	}
}

// overBudget reports whether data events must be dropped right now.
func (c *Capture) overBudget() bool {
	return c.buffered.Load()+int64(len(c.enc.buf)) > int64(c.opts.BufferBytes)
}

// finishEvent runs after each encoded event: hands full chunks to the
// flusher and rotates segments at the boundary.
func (c *Capture) finishEvent() {
	c.events.Add(1)
	if c.opts.MaxSegmentBytes > 0 && c.segBytes+int64(len(c.enc.buf)) >= c.opts.MaxSegmentBytes {
		c.rotateLocked()
		return
	}
	if len(c.enc.buf) >= captureChunkSize {
		c.flushLocked(false)
	}
}

// flushLocked hands the current chunk to the flusher. Rotation sends
// block (rare, and the flusher always drains, even after an error);
// ordinary chunk sends do not — a full channel just leaves the chunk
// growing until backpressure dropping catches up.
func (c *Capture) flushLocked(rotate bool) {
	n := len(c.enc.buf)
	if n == 0 && !rotate {
		return
	}
	msg := captureMsg{data: c.enc.buf, rotate: rotate}
	c.buffered.Add(int64(n))
	if rotate {
		c.ch <- msg
	} else {
		select {
		case c.ch <- msg:
		default:
			c.buffered.Add(-int64(n))
			return // keep accumulating; drop policy bounds growth
		}
	}
	c.bytes.Add(uint64(n))
	c.segBytes += int64(n)
	c.enc.buf = make([]byte, 0, captureChunkSize)
}

// rotateLocked ends the current segment and primes the next one so it
// replays standalone: the end marker closes this file, and the live
// attach table plus every open permission window are re-emitted at the
// head of the new segment. Per-thread VA deltas restart from zero.
func (c *Capture) rotateLocked() {
	c.enc.end()
	c.flushLocked(true)
	c.seg++
	c.segments.Add(1)
	c.segBytes = 0
	c.enc.va = newVAState()

	for _, d := range slices.Sorted(maps.Keys(c.attached)) {
		a := c.attached[d]
		c.enc.attach(d, a.r, a.perm)
	}
	for _, th := range slices.Sorted(maps.Keys(c.windows)) {
		for _, d := range slices.Sorted(maps.Keys(c.windows[th])) {
			w := c.windows[th][d]
			c.enc.setPerm(th, d, w.perm, w.site)
		}
	}
}

// Instr implements Sink.
func (c *Capture) Instr(th core.ThreadID, n uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.overBudget() {
		c.dropped.Add(1)
		return
	}
	c.enc.instr(th, n)
	c.finishEvent()
}

// Access implements Sink. Capture always permits; enforcement belongs
// to the machine sink sharing the Tee.
func (c *Capture) Access(th core.ThreadID, va memlayout.VA, size uint32, write bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.overBudget() {
		c.dropped.Add(1)
		return true
	}
	c.enc.access(th, va, size, write)
	c.finishEvent()
	return true
}

// Fetch implements Sink.
func (c *Capture) Fetch(th core.ThreadID, va memlayout.VA) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.overBudget() {
		c.dropped.Add(1)
		return true
	}
	c.enc.fetch(th, va)
	c.finishEvent()
	return true
}

// SetPerm implements Sink. Control event: never dropped.
func (c *Capture) SetPerm(th core.ThreadID, d core.DomainID, p core.Perm, site core.SiteID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if p == core.PermNone {
		delete(c.windows[th], d)
	} else {
		m := c.windows[th]
		if m == nil {
			m = make(map[core.DomainID]captureWindow)
			c.windows[th] = m
		}
		m[d] = captureWindow{perm: p, site: site}
	}
	c.enc.setPerm(th, d, p, site)
	c.finishEvent()
}

// Attach implements Sink. Control event: never dropped, and capture
// errors never abort a live attach.
func (c *Capture) Attach(d core.DomainID, r memlayout.Region, perm core.Perm) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.attached[d] = captureAttach{r: r, perm: perm}
	c.enc.attach(d, r, perm)
	c.finishEvent()
	return nil
}

// Detach implements Sink. Control event: never dropped.
func (c *Capture) Detach(d core.DomainID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	delete(c.attached, d)
	for _, m := range c.windows {
		delete(m, d)
	}
	c.enc.detach(d)
	c.finishEvent()
}

// Fence implements Sink.
func (c *Capture) Fence(th core.ThreadID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.overBudget() {
		c.dropped.Add(1)
		return
	}
	c.enc.fence(th)
	c.finishEvent()
}

// Close flushes the end marker, joins the flusher, and returns the
// first I/O error. Idempotent.
func (c *Capture) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.done
		return c.Err()
	}
	c.closed = true
	c.enc.end()
	c.flushLocked(true)
	c.mu.Unlock()
	close(c.ch)
	<-c.done
	return c.Err()
}

// flusher is the single consumer: it lazily opens segment files, writes
// chunks, and swaps files at rotation boundaries. After an I/O error it
// keeps draining (discarding) so producers never block.
func (c *Capture) flusher() {
	defer close(c.done)
	var w io.WriteCloser
	seg := 0
	fail := func(err error) {
		if err == nil {
			return
		}
		if c.err.CompareAndSwap(nil, &err) {
			if w != nil {
				w.Close()
			}
		}
		w = nil
	}
	for msg := range c.ch {
		c.buffered.Add(-int64(len(msg.data)))
		if c.Err() == nil {
			if w == nil && len(msg.data) > 0 {
				var err error
				w, err = c.opts.Open(seg)
				if err != nil {
					fail(err)
				} else if _, err = w.Write(fileMagic[:]); err != nil {
					fail(err)
				}
			}
			if w != nil && len(msg.data) > 0 {
				if _, err := w.Write(msg.data); err != nil {
					fail(err)
				}
			}
			if msg.rotate && w != nil {
				fail(w.Close())
				w = nil
			}
		}
		if msg.rotate {
			seg++
		}
	}
	if w != nil {
		fail(w.Close())
	}
}

var _ Sink = (*Capture)(nil)

// VerdictLog records the boolean outcomes of Access and Fetch as a
// packed bitstream, so a live run's enforcement decisions can be
// compared bit-for-bit against a replay's. Not safe for concurrent use;
// in serve each shard owns one, written under the shard lock.
type VerdictLog struct {
	n      uint64
	denied uint64
	bits   []uint64
}

// Append records one verdict.
func (v *VerdictLog) Append(ok bool) {
	word := v.n / 64
	if int(word) >= len(v.bits) {
		v.bits = append(v.bits, 0)
	}
	if ok {
		v.bits[word] |= 1 << (v.n % 64)
	} else {
		v.denied++
	}
	v.n++
}

// Len returns the number of verdicts recorded.
func (v *VerdictLog) Len() uint64 { return v.n }

// Denied returns the number of false (denied) verdicts.
func (v *VerdictLog) Denied() uint64 { return v.denied }

// Packed returns the verdicts as little-endian packed bytes; trailing
// bits of the last byte are zero. Deterministic for a given sequence.
func (v *VerdictLog) Packed() []byte {
	out := make([]byte, (v.n+7)/8)
	for i := range out {
		out[i] = byte(v.bits[i/8] >> ((i % 8) * 8))
	}
	return out
}

// Equal reports whether two logs hold identical verdict sequences.
func (v *VerdictLog) Equal(o *VerdictLog) bool {
	if v.n != o.n {
		return false
	}
	for i := uint64(0); i < (v.n+63)/64; i++ {
		if v.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}

// Merge appends o's verdicts after v's.
func (v *VerdictLog) Merge(o *VerdictLog) {
	for i := uint64(0); i < o.n; i++ {
		v.Append(o.bits[i/64]&(1<<(i%64)) != 0)
	}
}

// withVerdicts tees Access/Fetch outcomes into a VerdictLog.
type withVerdicts struct {
	Sink
	log *VerdictLog
}

// WithVerdicts wraps next so every Access/Fetch verdict is appended to
// log. Tee cannot observe the enforcing sink's verdicts (it only ANDs
// them), so the wrapper sits between the Tee and the machine.
func WithVerdicts(next Sink, log *VerdictLog) Sink {
	return &withVerdicts{Sink: next, log: log}
}

func (s *withVerdicts) Access(th core.ThreadID, va memlayout.VA, size uint32, write bool) bool {
	ok := s.Sink.Access(th, va, size, write)
	s.log.Append(ok)
	return ok
}

func (s *withVerdicts) Fetch(th core.ThreadID, va memlayout.VA) bool {
	ok := s.Sink.Fetch(th, va)
	s.log.Append(ok)
	return ok
}

var _ Sink = (*withVerdicts)(nil)
