package domainvirt_test

import (
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"domainvirt"
	"domainvirt/internal/sweep"
)

// startSweepWorker runs an in-process pmoworker with its own snapshot
// cache (persistent under dir when non-empty) and returns its address.
// wrap, when non-nil, intercepts the cell runner (for failure injection).
func startSweepWorker(t *testing.T, dir string, wrap func(run sweep.Runner) sweep.Runner) (string, *domainvirt.SnapshotCache) {
	t.Helper()
	var cache *domainvirt.SnapshotCache
	var err error
	if dir != "" {
		cache, err = domainvirt.NewSnapshotCacheDir(dir)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		cache = domainvirt.NewSnapshotCache()
	}
	run := func(spec []byte, fetch sweep.Fetch) ([]byte, error) {
		return domainvirt.RunSweepCell(spec, cache, fetch)
	}
	if wrap != nil {
		run = wrap(run)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &sweep.Server{Run: run}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close(); lis.Close() })
	return lis.Addr().String(), cache
}

// sweepOpt returns a small grid configuration suitable for an
// end-to-end distributed run.
func sweepOpt(t *testing.T, obsDir string) domainvirt.ExpOptions {
	t.Helper()
	opt := domainvirt.DefaultExpOptions()
	opt.MicroOps = 300
	opt.MicroInit = 64
	opt.WhisperOps = 300
	opt.WhisperInit = 128
	opt.PMOCounts = []int{16, 64}
	opt.Snapshots = domainvirt.NewSnapshotCache()
	if obsDir != "" {
		opt.Obs = domainvirt.ExpObs{Dir: obsDir, Epoch: 20000}
	}
	return opt
}

// dirBytes reads every file under dir keyed by relative path.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out[rel] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// diffDirs asserts two export directories are byte-identical.
func diffDirs(t *testing.T, seq, dist string) {
	t.Helper()
	a, b := dirBytes(t, seq), dirBytes(t, dist)
	if len(a) == 0 {
		t.Fatal("sequential export produced no files")
	}
	for rel, want := range a {
		got, ok := b[rel]
		if !ok {
			t.Errorf("distributed export missing %s", rel)
			continue
		}
		if string(got) != string(want) {
			t.Errorf("distributed export %s differs from sequential (%d vs %d bytes)", rel, len(got), len(want))
		}
	}
	for rel := range b {
		if _, ok := a[rel]; !ok {
			t.Errorf("distributed export has extra file %s", rel)
		}
	}
}

// TestDistributedSweepByteIdentity is the fan-out referee: a Table VI
// grid with observability export distributed over two workers must
// produce row-for-row identical tables and byte-identical manifests,
// epoch series, and histogram files versus the sequential local path.
func TestDistributedSweepByteIdentity(t *testing.T) {
	seqDir := filepath.Join(t.TempDir(), "seq")
	distDir := filepath.Join(t.TempDir(), "dist")

	seqOpt := sweepOpt(t, seqDir)
	seqOpt.Workers = 1
	wantRows, err := domainvirt.Table6(seqOpt)
	if err != nil {
		t.Fatal(err)
	}

	w1, _ := startSweepWorker(t, "", nil)
	w2, _ := startSweepWorker(t, "", nil)
	distOpt := sweepOpt(t, distDir)
	distOpt.SweepAddrs = []string{w1, w2}
	distOpt.SweepConns = 2
	gotRows, err := domainvirt.Table6(distOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRows, wantRows) {
		t.Errorf("distributed Table VI differs:\n got: %+v\nwant: %+v", gotRows, wantRows)
	}
	diffDirs(t, seqDir, distDir)
}

// TestDistributedSweepWorkerLoss kills one of two workers on its second
// cell, mid-sweep; the coordinator must degrade to local re-execution
// for the lost cells and still match the sequential run byte-for-byte.
func TestDistributedSweepWorkerLoss(t *testing.T) {
	seqDir := filepath.Join(t.TempDir(), "seq")
	distDir := filepath.Join(t.TempDir(), "dist")

	seqOpt := sweepOpt(t, seqDir)
	seqOpt.Workers = 1
	wantRows, err := domainvirt.Table6(seqOpt)
	if err != nil {
		t.Fatal(err)
	}

	var cells atomic.Int32
	dying, _ := startSweepWorker(t, "", func(run sweep.Runner) sweep.Runner {
		return func(spec []byte, fetch sweep.Fetch) ([]byte, error) {
			if cells.Add(1) >= 2 {
				panic("injected worker death") // tears down the connection mid-sweep
			}
			return run(spec, fetch)
		}
	})
	healthy, _ := startSweepWorker(t, "", nil)
	distOpt := sweepOpt(t, distDir)
	distOpt.SweepAddrs = []string{dying, healthy}
	gotRows, err := domainvirt.Table6(distOpt)
	if err != nil {
		t.Fatal(err)
	}
	if cells.Load() < 2 {
		t.Fatal("dying worker never reached its death cell")
	}
	if !reflect.DeepEqual(gotRows, wantRows) {
		t.Errorf("post-loss Table VI differs:\n got: %+v\nwant: %+v", gotRows, wantRows)
	}
	diffDirs(t, seqDir, distDir)
}

// TestDistributedSweepSnapshotPull: workers with empty persistent stores
// pull warmup checkpoints from a coordinator whose store is primed —
// zero warmup re-simulations anywhere in the fleet.
func TestDistributedSweepSnapshotPull(t *testing.T) {
	coordDir := t.TempDir()
	p := cacheParams()
	cfg := domainvirt.DefaultConfig()

	// Prime the coordinator's store with both schemes' warmups.
	prime, err := domainvirt.NewSnapshotCacheDir(coordDir)
	if err != nil {
		t.Fatal(err)
	}
	schemes := []domainvirt.Scheme{domainvirt.SchemeBaseline, domainvirt.SchemeLowerbound}
	for _, s := range schemes {
		if _, _, err := domainvirt.RunCached("avl", p, s, cfg, prime); err != nil {
			t.Fatal(err)
		}
	}

	workerDir := t.TempDir()
	addr, wcache := startSweepWorker(t, workerDir, nil)
	coord, err := domainvirt.NewSnapshotCacheDir(coordDir)
	if err != nil {
		t.Fatal(err)
	}
	opt := domainvirt.DefaultExpOptions()
	opt.Snapshots = coord
	opt.SweepAddrs = []string{addr}

	want, err := domainvirt.RunSchemes("avl", p, cfg, schemes...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := domainvirt.RunSchemesOpt("avl", p, opt, schemes...)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range schemes {
		if got[s] != want[s] {
			t.Errorf("pulled-snapshot result differs under %s:\n got: %+v\nwant: %+v", s, got[s], want[s])
		}
	}
	if st := wcache.Stats(); st.Warmups != 0 || st.DiskHits != len(schemes) {
		t.Errorf("worker stats = %+v, want 0 warmups and %d pulled-snapshot hits", st, len(schemes))
	}
	matches, err := filepath.Glob(filepath.Join(workerDir, "*.pmosnap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != len(schemes) {
		t.Errorf("worker store holds %d snapshots, want %d pulled files", len(matches), len(schemes))
	}
}

// syncBuffer is a progress writer the test can read while the grid
// writes to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestDistributedSweepLiveProgress: a distributed grid prints each
// cell's progress line as that cell completes, not after the sweep. The
// one worker connection holds its second cell until the coordinator's
// progress shows the first cell's line, and fails the cell if that line
// never comes.
func TestDistributedSweepLiveProgress(t *testing.T) {
	var progress syncBuffer
	var cells atomic.Int32
	addr, _ := startSweepWorker(t, "", func(run sweep.Runner) sweep.Runner {
		return func(spec []byte, fetch sweep.Fetch) ([]byte, error) {
			if cells.Add(1) == 2 {
				deadline := time.Now().Add(5 * time.Second)
				for !strings.Contains(progress.String(), "[1/") {
					if time.Now().After(deadline) {
						return nil, errors.New("no progress line for the first cell after 5s")
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
			return run(spec, fetch)
		}
	})
	opt := domainvirt.DefaultExpOptions()
	opt.SweepAddrs = []string{addr}
	opt.Progress = &progress
	p := domainvirt.Params{NumPMOs: 16, Ops: 200, InitialElems: 64, Seed: 42}
	if _, err := domainvirt.RunSchemesOpt("avl", p, opt,
		domainvirt.SchemeBaseline, domainvirt.SchemeLowerbound); err != nil {
		t.Fatalf("%v\nprogress:\n%s", err, progress.String())
	}
	if !strings.Contains(progress.String(), "[2/2] ") {
		t.Errorf("missing the second cell's progress line:\n%s", progress.String())
	}
}
