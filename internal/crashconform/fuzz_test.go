package crashconform

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadRepro feeds arbitrary text to the crash corpus reader, the
// reader of every repro file a crash-conformance run leaves on disk. A
// text ReadRepro accepts must re-serialise through Repro.WriteTo and
// read back to an equal Repro.
func FuzzReadRepro(f *testing.F) {
	corpus, err := LoadCorpus(filepath.Join("testdata", "repros"))
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range corpus {
		var b bytes.Buffer
		if _, err := r.WriteTo(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.String())
	}
	f.Add(corpusHeader + "\n# a comment\npools 3 bug none mode droptail+torn seeds 2\n" +
		"setup single 1 abort 1:2=3,2:0=1\nvictim multi 0 commit 1:1=7,2:3=4\n")
	f.Fuzz(func(t *testing.T, text string) {
		r, err := ReadRepro(strings.NewReader(text))
		if err != nil {
			return
		}
		var b bytes.Buffer
		if _, err := r.WriteTo(&b); err != nil {
			t.Fatalf("WriteTo of an accepted repro: %v\nrepro: %+v", err, r)
		}
		q, err := ReadRepro(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatalf("re-read of %q: %v", b.String(), err)
		}
		if !reflect.DeepEqual(r, q) {
			t.Fatalf("round trip changed the repro:\n%+v\n%+v\ntext:\n%s", r, q, b.String())
		}
	})
}
