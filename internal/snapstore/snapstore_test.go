package snapstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if s.Has("k") {
		t.Error("empty store claims key")
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrMiss) {
		t.Errorf("empty store Get: %v, want ErrMiss", err)
	}
	data := []byte("snapshot bytes")
	if err := s.Put("k", data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("Get returned %q, want %q", got, data)
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "k" {
		t.Errorf("Keys = %v, want [k]", keys)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if s.Has("k") {
		t.Error("deleted key still present")
	}
	if err := s.Delete("k"); err != nil {
		t.Error("double delete:", err)
	}
}

// TestStoreTracesView: the trace view shares the directory but not the
// files. One key names a snapshot and a trace apart, each view's Keys
// lists only its own suffix, and deleting one leaves the other.
func TestStoreTracesView(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Traces()
	if tr.Dir() != s.Dir() || tr.Path("k") == s.Path("k") {
		t.Fatalf("trace view paths: %s and %s", tr.Path("k"), s.Path("k"))
	}
	if err := s.Put("k", []byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	if tr.Has("k") {
		t.Error("trace view sees the snapshot file")
	}
	if err := tr.Put("k", []byte("trace")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put("t", []byte("trace")); err != nil {
		t.Fatal(err)
	}
	if keys, err := s.Keys(); err != nil || len(keys) != 1 || keys[0] != "k" {
		t.Errorf("snapshot Keys = %v, %v; want [k]", keys, err)
	}
	if keys, err := tr.Keys(); err != nil || len(keys) != 2 {
		t.Errorf("trace Keys = %v, %v; want 2 keys", keys, err)
	}
	if err := tr.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("k"); err != nil || string(got) != "snapshot" {
		t.Errorf("snapshot after deleting the trace: %q, %v", got, err)
	}
}

func TestStoreOpenCreatesNestedDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b", "snapshots")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

// TestStoreLeavesNoTempFiles: the temp file of every completed Put must
// be gone (renamed), so a shared directory never accumulates debris that
// a Keys() listing or a disk-quota check would trip over.
func TestStoreLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put("k", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Errorf("store dir holds %v, want exactly one snapshot file", names)
	}
}

// TestStoreConcurrentWriters races many writers (same key and distinct
// keys) against readers on one directory — the multi-process sharing
// model of a distributed sweep, compressed into goroutines. Readers must
// only ever observe a complete value, never a torn prefix or a mix.
func TestStoreConcurrentWriters(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Each writer writes a self-describing value: byte i repeated. Any
	// torn read mixes values or truncates, and fails validation.
	value := func(i int) []byte {
		return bytes.Repeat([]byte{byte(i)}, 4096)
	}
	const writers = 8
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, writers*2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := s.Put("shared", value(w)); err != nil {
					errs <- err
					return
				}
				if err := s.Put(fmt.Sprintf("own-%d", w), value(w)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				data, err := s.Get("shared")
				if errors.Is(err, ErrMiss) {
					continue // not yet written
				}
				if err != nil {
					errs <- err
					return
				}
				if len(data) != 4096 {
					errs <- fmt.Errorf("torn read: %d bytes", len(data))
					return
				}
				for _, b := range data {
					if b != data[0] {
						errs <- fmt.Errorf("mixed read: %d and %d", data[0], b)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Every private key must hold its writer's complete value.
	for w := 0; w < writers; w++ {
		data, err := s.Get(fmt.Sprintf("own-%d", w))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, value(w)) {
			t.Errorf("own-%d corrupted", w)
		}
	}
}

// TestStoreRejectsKeysOutsideDir: keys reach the store from the network
// (a sweep worker's NEEDSNAP names one), so no key may read, find,
// write or delete a file outside the store directory. The store sits
// next to a sibling snapshot file that a path-shaped key would reach.
func TestStoreRejectsKeysOutsideDir(t *testing.T) {
	root := t.TempDir()
	s, err := Open(filepath.Join(root, "store"))
	if err != nil {
		t.Fatal(err)
	}
	outside := filepath.Join(root, "outside"+ext)
	if err := os.WriteFile(outside, []byte("not the store's"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"../outside", "a/b", `a\b`, ".", "..", "", "../evil"} {
		if s.Has(key) {
			t.Errorf("Has(%q) = true", key)
		}
		if data, err := s.Get(key); !errors.Is(err, ErrMiss) {
			t.Errorf("Get(%q) = %q, %v; want ErrMiss", key, data, err)
		}
		if err := s.Put(key, []byte("x")); !errors.Is(err, ErrKey) {
			t.Errorf("Put(%q) = %v, want ErrKey", key, err)
		}
		if err := s.Delete(key); !errors.Is(err, ErrKey) {
			t.Errorf("Delete(%q) = %v, want ErrKey", key, err)
		}
	}
	if _, err := os.Stat(outside); err != nil {
		t.Errorf("sibling file gone: %v", err)
	}
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Errorf("root holds %d entries, want the store and the sibling", len(ents))
	}
}
