package reqtrace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// FuzzParseSpansJSONL feeds arbitrary text to the span dump parser, the
// reader of the TRACE answer pmoload takes from pmod. A dump it
// accepts, written back with WriteSpansJSONL, must parse to equal
// records.
func FuzzParseSpansJSONL(f *testing.F) {
	tr := New(Config{SampleEvery: 1, RingSize: 8, OpNames: []string{"?", "hello", "open", "read"}})
	for i := 0; i < 4; i++ {
		a := tr.Begin(uint8(1+i%3), time.Unix(0, int64(i)))
		a.Mark(StageRead)
		a.SetSID(uint64(i))
		a.AddBytes(uint32(i * 64))
		tr.End(a, uint8(i%2), uint16(i))
	}
	var dump bytes.Buffer
	if err := tr.WriteSpansJSONL(&dump); err != nil {
		f.Fatal(err)
	}
	f.Add(dump.String())
	f.Add(`{"seq":9,"op":"op7","sid":2,"slow":true,"stages_ns":{"queue":5,"bogus":9}}` + "\n\nnull\n")
	f.Fuzz(func(t *testing.T, text string) {
		recs, err := ParseSpansJSONL(strings.NewReader(text))
		if err != nil {
			return
		}
		cfg, spans, ok := spansOf(recs)
		if !ok {
			return
		}
		var b bytes.Buffer
		if err := WriteSpansJSONL(&b, cfg, spans); err != nil {
			t.Fatalf("WriteSpansJSONL of accepted records: %v", err)
		}
		again, err := ParseSpansJSONL(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of %q: %v", b.String(), err)
		}
		if !reflect.DeepEqual(recs, again) {
			t.Fatalf("round trip changed the records:\n%+v\n%+v\ndump:\n%s", recs, again, b.String())
		}
	})
}

// spansOf turns parsed records back into spans, with the Config whose
// OpNames names their ops. ok is false when the records hold an op
// name WriteSpansJSONL never writes (the empty one) or more than 256.
func spansOf(recs []SpanRecord) (cfg Config, spans []Span, ok bool) {
	ops := make(map[string]uint8)
	for _, r := range recs {
		op, seen := ops[r.Op]
		if !seen {
			if r.Op == "" || len(cfg.OpNames) == 256 {
				return Config{}, nil, false
			}
			op = uint8(len(cfg.OpNames))
			ops[r.Op] = op
			cfg.OpNames = append(cfg.OpNames, r.Op)
		}
		spans = append(spans, Span{
			Seq: r.Seq, Op: op, SID: r.SID,
			Status: r.Status, Code: r.Code, Bytes: r.Bytes,
			Sampled: r.Sampled, Slow: r.Slow,
			Start: r.StartNs, Total: r.TotalNs, Stages: r.Stages,
		})
	}
	return cfg, spans, true
}
