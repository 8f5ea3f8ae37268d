package trace_test

import (
	"bytes"
	"testing"

	"domainvirt/internal/trace"
	"domainvirt/internal/workload"
	_ "domainvirt/internal/workload/micro"
)

// BenchmarkTraceDecode replays a recorded avl trace into a Counter: trace
// decode alone, with no simulation behind it. The trace has the shape of
// perfbench's replay workload (16 PMOs, 256 initial elements, 250 ops).
// One op is one whole replay, so allocs/op is the decoder's fixed cost
// and must not grow with trace length.
func BenchmarkTraceDecode(b *testing.B) {
	w, err := workload.New("avl")
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	env := workload.NewEnv(tw, workload.Params{NumPMOs: 16, Ops: 250, InitialElems: 256, Seed: 42})
	if err := w.Setup(env); err != nil {
		b.Fatal(err)
	}
	if err := w.Run(env); err != nil {
		b.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()

	var events uint64
	var c trace.Counter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c = trace.Counter{}
		n, err := trace.Replay(bytes.NewReader(data), &c)
		if err != nil {
			b.Fatal(err)
		}
		events += n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
