package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The traced run records one span per call the benchmark makes into a
// layer. Spans live in memory until the run ends, then are written out
// as JSONL and folded into per-layer self times.

// layers lists the span layers in report order. A span's layer is the
// prefix of its name before the first dot. "bench" is the benchmark's
// own loop and idle time; "client" is time inside serve.Client calls
// that no server-side span covers (client codec, loopback, scheduling).
var layers = []string{"bench", "client", "grid", "workload", "sim", "snapstore", "trace", "serve", "cluster"}

// selfSumTolerance is how far the summed layer self times may stray from
// lanes x traced wall, as a share of it, before the traced run fails.
// Every span hangs under a lane root that spans the traced wall, and the
// bench layer's self time takes whatever no layer span covers, so the sum
// only goes off when sibling spans overlap or a span escapes its parent.
const selfSumTolerance = 0.01

// maxBenchShare caps the bench layer's self time, as a share of lanes x
// traced wall, on the workloads whose loop does nothing but call layers
// (grid and replay). It is the check that fails when a call into a layer
// goes without a span and its time falls to bench.
const maxBenchShare = 0.02

// span is one recorded call. Times are nanoseconds since the tracer's
// epoch; parent indexes the same recorder's span list (-1 for a root).
type span struct {
	start, end int64
	parent     int32
	name       uint16
	ref        int64 // cell index or request sequence number
}

// tracer owns the span name table and the recorders of one traced run.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	names []string
	ids   map[string]uint16
	recs  []*recorder
	refs  func(ref int64) string // renders span refs for the dump
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), ids: make(map[string]uint16)}
}

// id interns a span name.
func (t *tracer) id(name string) uint16 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := uint16(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

// recorder is one goroutine's span list; it needs no locking.
type recorder struct {
	t     *tracer
	spans []span
}

func (t *tracer) recorder() *recorder {
	r := &recorder{t: t}
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
	return r
}

// begin opens a span under parent and returns its index; end closes it.
func (r *recorder) begin(name uint16, parent int32, ref int64) int32 {
	r.spans = append(r.spans, span{start: r.t.now(), end: -1, parent: parent, name: name, ref: ref})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) { r.spans[i].end = r.t.now() }

// add records a span whose times were taken elsewhere.
func (r *recorder) add(name uint16, parent int32, ref int64, start, end int64) int32 {
	r.spans = append(r.spans, span{start: start, end: end, parent: parent, name: name, ref: ref})
	return int32(len(r.spans) - 1)
}

// call records fn as one span and returns its duration. A nil recorder
// (an untraced run) only times fn.
func (r *recorder) call(name uint16, parent int32, ref int64, fn func()) time.Duration {
	if r == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	i := r.begin(name, parent, ref)
	fn()
	r.end(i)
	return time.Duration(r.spans[i].end - r.spans[i].start)
}

func (r *recorder) dur(i int32) time.Duration {
	return time.Duration(r.spans[i].end - r.spans[i].start)
}

// layerOf maps a span name to its layer.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// breakdown is the per-layer view of one traced run.
type breakdown struct {
	Self     map[string]float64 // layer -> self seconds
	ByName   map[string]float64 // span name -> self seconds
	Total    float64            // summed self seconds over every rooted span
	Lanes    int
	Wall     float64 // traced wall seconds
	SumError float64 // |Total - Lanes*Wall| / (Lanes*Wall)
	Spans    int
}

// selfTimes folds every recorder's spans into layer self times: a
// span's self time is its duration minus the part of it that its
// children cover. Only spans under a root whose name is rootName count
// towards the sum; lanes*wall is what that sum must match.
func (t *tracer) selfTimes(rootName string, lanes int, wall time.Duration) breakdown {
	b := breakdown{Self: make(map[string]float64), ByName: make(map[string]float64), Lanes: lanes, Wall: wall.Seconds()}
	for _, l := range layers {
		b.Self[l] = 0
	}
	root := t.id(rootName)
	for _, r := range t.recs {
		b.Spans += len(r.spans)
		children := make([][]int32, len(r.spans))
		for i, s := range r.spans {
			if s.parent >= 0 {
				children[s.parent] = append(children[s.parent], int32(i))
			}
		}
		// rooted marks spans whose ancestor chain ends at a lane root.
		rooted := make([]bool, len(r.spans))
		for i, s := range r.spans {
			switch {
			case s.parent < 0:
				rooted[i] = s.name == root
			default:
				rooted[i] = rooted[s.parent] // parents precede children
			}
		}
		for i, s := range r.spans {
			if !rooted[i] || s.end < s.start {
				continue
			}
			self := s.end - s.start - covered(r.spans, children[i], s.start, s.end)
			name := t.names[s.name]
			sec := float64(self) / 1e9
			b.Self[layerOf(name)] += sec
			b.ByName[name] += sec
			b.Total += sec
		}
	}
	if want := float64(lanes) * b.Wall; want > 0 {
		d := b.Total - want
		if d < 0 {
			d = -d
		}
		b.SumError = d / want
	}
	return b
}

// covered returns how much of [lo, hi) the union of the child spans
// covers.
func covered(spans []span, kids []int32, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := spans[k].start, spans[k].end
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, v := range iv {
		if v[0] > curE {
			total += curE - curS
			curS, curE = v[0], v[1]
			continue
		}
		if v[1] > curE {
			curE = v[1]
		}
	}
	return total + curE - curS
}

// dump writes every span, gzipped, as one JSON object per line: a global id, the
// parent's id (-1 for roots), name, layer, start and end in nanoseconds
// since the run's epoch, and the cell or request it belongs to.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriterSize(zw, 1<<20)
	var line []byte
	base := int64(0)
	for _, r := range t.recs {
		for i, s := range r.spans {
			parent := int64(-1)
			if s.parent >= 0 {
				parent = base + int64(s.parent)
			}
			name := t.names[s.name]
			line = append(line[:0], `{"id":`...)
			line = strconv.AppendInt(line, base+int64(i), 10)
			line = append(line, `,"parent":`...)
			line = strconv.AppendInt(line, parent, 10)
			line = append(line, `,"name":`...)
			line = strconv.AppendQuote(line, name)
			line = append(line, `,"layer":`...)
			line = strconv.AppendQuote(line, layerOf(name))
			line = append(line, `,"start_ns":`...)
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, `,"end_ns":`...)
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, `,"ref":`...)
			ref := strconv.FormatInt(s.ref, 10)
			if t.refs != nil {
				ref = t.refs(s.ref)
			}
			line = strconv.AppendQuote(line, ref)
			line = append(line, "}\n"...)
			if _, err := w.Write(line); err != nil {
				f.Close()
				return err
			}
		}
		base += int64(len(r.spans))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints the breakdown, fills the bench.* and <layer>.self_s
// metrics and fails the run if the self times do not add up, or if bench
// takes more than benchCap of the lane time (0: no cap).
func (b breakdown) report(out *output, workload string, benchCap float64) {
	out.linef("traced run: %d spans, %d lane(s) x %.4fs traced wall", b.Spans, b.Lanes, b.Wall)
	for _, l := range layers {
		share := 0.0
		if b.Total > 0 {
			share = b.Self[l] / b.Total
		}
		out.linef("  self %-10s %10.4fs  %5.1f%%", l, b.Self[l], 100*share)
		out.layer(l+".self_s", b.Self[l])
	}
	names := make([]string, 0, len(b.ByName))
	for n := range b.ByName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out.linef("    %-28s %10.4fs", n, b.ByName[n])
	}
	out.linef("  sum of self times %.4fs vs %d x %.4fs: off by %.3f%% (tolerance %.1f%%)",
		b.Total, b.Lanes, b.Wall, 100*b.SumError, 100*selfSumTolerance)
	if b.SumError > selfSumTolerance {
		out.fail("%s layer self times are off lanes x traced wall by %.3f%%", workload, 100*b.SumError)
	}
	if benchCap > 0 {
		share := 0.0
		if lanes := float64(b.Lanes) * b.Wall; lanes > 0 {
			share = b.Self["bench"] / lanes
		}
		out.linef("  bench self time %.3f%% of lanes x traced wall (cap %.1f%%)", 100*share, 100*benchCap)
		if share > benchCap {
			out.fail("%s time outside every layer span is %.3f%% of the lanes, over the %.1f%% cap", workload, 100*share, 100*benchCap)
		}
	}
	out.layer("bench.self_sum_error", b.SumError)
	out.layer("bench.traced_wall_s", b.Wall)
}

// spanPath is where a workload's span dump lands.
func spanPath(dir, workload string) string {
	return fmt.Sprintf("%s/spans-%s.jsonl.gz", dir, workload)
}
