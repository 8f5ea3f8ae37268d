package conformance

import (
	"bytes"
	"maps"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"domainvirt/internal/sim"
)

// FuzzConformProgram decodes arbitrary bytes into a trace program and
// differentially replays it: any invariant violation — a verdict or
// attribution disagreement between engines, broken cycle accounting —
// fails the fuzz run. The byte decoder maps every input onto a
// well-formed program, so the whole input space is productive.
func FuzzConformProgram(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		p := Generate(seed, Profile(seed%int64(NumProfiles)))
		if len(p.Ops) > 64 {
			p.Ops = p.Ops[:64] // keep seeds small so mutation throughput stays high
		}
		f.Add(EncodeBytes(p))
	}
	// A hand-built seed hitting the key-reuse corner directly:
	// attach, attach, grant, detach, re-grant, access.
	f.Add(EncodeBytes(Program{
		Cores: 1, Threads: 3,
		Ops: []Op{
			{Kind: OpAttach, D: 6},
			{Kind: OpAttach, D: 9},
			{Kind: OpSetPerm, Th: 2, D: 9, Perm: 0},
			{Kind: OpDetach, D: 9},
			{Kind: OpSetPerm, Th: 1, D: 6, Perm: 2},
			{Kind: OpLoad, Th: 2, D: 6, Off: 0x30c0, Size: 8},
		},
	}))
	cfg := sim.DefaultConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		p := DecodeBytes(data)
		rr := Replay(p, cfg)
		if rr.Diverged() {
			t.Fatalf("divergence: %v\nprogram: %+v", rr.Divergences[0], p)
		}
	})
}

// FuzzReadProgram feeds arbitrary text to the corpus reader, the reader
// of every repro file a conformance run leaves on disk. A text that
// ReadProgram accepts must re-serialise through Program.WriteTo and read
// back to an equal Program.
func FuzzReadProgram(f *testing.F) {
	corpus, err := LoadCorpus(filepath.Join("testdata", "regressions"))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range slices.Sorted(maps.Keys(corpus)) {
		var b bytes.Buffer
		if _, err := corpus[name].WriteTo(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.String())
	}
	f.Add(corpusHeader + "\n# a comment\nseed -3 profile churn cores 2 threads 4\n" +
		"attach 7\nsetperm 2 7 r\nfetch 4 7 0x1fc0\ninstr 1 99\nfence 3\ndetach 7\n")
	f.Fuzz(func(t *testing.T, text string) {
		p, err := ReadProgram(strings.NewReader(text))
		if err != nil {
			return
		}
		var b bytes.Buffer
		if _, err := p.WriteTo(&b); err != nil {
			t.Fatalf("WriteTo of an accepted program: %v\nprogram: %+v", err, p)
		}
		q, err := ReadProgram(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatalf("re-read of %q: %v", b.String(), err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the program:\n%+v\n%+v\ntext:\n%s", p, q, b.String())
		}
	})
}
