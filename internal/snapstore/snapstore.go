// Package snapstore is a content-addressed on-disk cache of the two
// things a persistent experiment cache keeps: encoded machine snapshots
// (warmup and mid-run checkpoints, the versioned, checksummed buffers of
// sim.EncodeSnapshot) and the recorded traces of measured segments that
// later cells replay on those checkpoints. Keys name identities — the
// caller derives them by hashing the workload, params, scheme,
// structural configuration and format versions — and each kind of file
// has a suffix of its own in one directory (see Traces).
//
// The store is safe for concurrent use by processes sharing one
// directory: writes go through a same-directory temp file and an atomic
// rename, so a reader sees either no file or a complete one, never a
// torn write. Two writers racing on one key both write complete files
// and the last rename wins — harmless, because a key is derived from
// the full identity of what it names and both encoders are
// deterministic, so rival writers carry identical bytes. Corruption (a
// partial copy, bit rot, a file from a different format version) is the
// reader's job to reject; the store only moves bytes.
package snapstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Errors. A key that fails the key rule is a miss for Get and Has.
var (
	// ErrMiss reports a key with no stored file.
	ErrMiss = errors.New("snapstore: miss")
	// ErrKey reports a key outside the key rule: non-empty, and only
	// [0-9A-Za-z_-].
	ErrKey = errors.New("snapstore: invalid key")
)

// File suffixes: snapshots, and the traces of the Traces view.
const (
	ext      = ".pmosnap"
	traceExt = ".pmotrace"
)

// Store is one directory's files of one suffix: snapshots for a Store
// from Open, traces for its Traces view.
type Store struct {
	dir string
	ext string
}

// Open returns the snapshot Store over dir, creating the directory if
// needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapstore: %w", err)
	}
	return &Store{dir: dir, ext: ext}, nil
}

// Traces returns the store of traces in s's directory: the same key
// rule and atomic writes under a suffix of its own, so the snapshot
// store's Keys never lists a trace and a key may name one of each. It
// touches no file.
func (s *Store) Traces() *Store { return &Store{dir: s.dir, ext: traceExt} }

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the file path a key maps to.
func (s *Store) Path(key string) string {
	return filepath.Join(s.dir, key+s.ext)
}

// validKey reports whether key follows the key rule, which keeps every
// key's file inside the store directory. Keys reach the store from the
// network — a sweep worker names the snapshot it needs — so every method
// that opens a key's file checks it.
func validKey(key string) bool {
	for _, c := range []byte(key) {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' || c == '-') {
			return false
		}
	}
	return key != ""
}

// Has reports whether a file exists for key.
func (s *Store) Has(key string) bool {
	if !validKey(key) {
		return false
	}
	_, err := os.Stat(s.Path(key))
	return err == nil
}

// Get returns the stored bytes for key, or ErrMiss.
func (s *Store) Get(key string) ([]byte, error) {
	if !validKey(key) {
		return nil, fmt.Errorf("%w: %w: %q", ErrMiss, ErrKey, key)
	}
	data, err := os.ReadFile(s.Path(key))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrMiss, key)
		}
		return nil, fmt.Errorf("snapstore: %w", err)
	}
	return data, nil
}

// Put stores data under key atomically: a reader of Path(key) — in this
// process or another sharing the directory — sees the previous contents
// or the new contents, never a prefix.
func (s *Store) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("%w: %q", ErrKey, key)
	}
	tmp, err := os.CreateTemp(s.dir, key+".tmp*")
	if err != nil {
		return fmt.Errorf("snapstore: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("snapstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.Path(key)); err != nil {
		return fmt.Errorf("snapstore: %w", err)
	}
	return nil
}

// Delete removes the file for key (a decode-rejected file is dead
// weight until its writer is fixed; callers drop it before rebuilding).
// Missing files are not an error.
func (s *Store) Delete(key string) error {
	if !validKey(key) {
		return fmt.Errorf("%w: %q", ErrKey, key)
	}
	if err := os.Remove(s.Path(key)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("snapstore: %w", err)
	}
	return nil
}

// Keys lists the keys of the stored files of s's suffix in directory
// order.
func (s *Store) Keys() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("snapstore: %w", err)
	}
	var keys []string
	for _, e := range ents {
		if name, ok := strings.CutSuffix(e.Name(), s.ext); ok && !e.IsDir() {
			keys = append(keys, name)
		}
	}
	return keys, nil
}
