package domainvirt

import (
	"path/filepath"
	"strings"
	"testing"

	"domainvirt/internal/core"
	"domainvirt/internal/pmo"
	"domainvirt/internal/workload"
)

// faultySetup is a workload whose Setup writes to a pool it attached
// read-only. It is never registered: tests that iterate the registry
// must not see it.
type faultySetup struct{}

func (faultySetup) Name() string { return "faulty-setup" }

func (faultySetup) Setup(env *workload.Env) error {
	p, err := env.Store.Create("ro", 1<<20, pmo.ModeDefault, "test")
	if err != nil {
		return err
	}
	att, err := env.Space.Attach(p, core.PermR, "")
	if err != nil {
		return err
	}
	env.Space.Sink().Access(0, att.Region.Base, 8, true)
	return nil
}

func (faultySetup) Run(*workload.Env) error { return nil }

// TestSetupFaultFailsCell: a setup that raises a fault fails its cell,
// uncached and through a memory and a directory cache, on the call that
// builds and on every later one; no cache stores a checkpoint or a
// trace for it.
func TestSetupFaultFailsCell(t *testing.T) {
	const name = "faulty-setup"
	p := Params{NumPMOs: 1, Ops: 10, InitialElems: 16, Seed: 1}
	cfg := DefaultConfig()
	wantErr := func(label string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), name+" setup under") || !strings.Contains(err.Error(), "faults") {
			t.Errorf("%s: err = %v, want the setup fault", label, err)
		}
	}
	for _, s := range []Scheme{SchemeBaseline, SchemeDomainVirt} {
		_, err := setUp(faultySetup{}, name, p, s, cfg)
		wantErr("setUp under "+string(s), err)

		dir := t.TempDir()
		disk, err := NewSnapshotCacheDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for label, cache := range map[string]*SnapshotCache{"memory": NewSnapshotCache(), "directory": disk} {
			for call := 0; call < 2; call++ {
				_, hit, err := cache.ready(faultySetup{}, name, p, s, cfg, true)
				wantErr(label+" cache under "+string(s), err)
				if hit {
					t.Errorf("%s cache under %s: a faulting setup reported a hit", label, s)
				}
			}
			if cache.HasStored(SnapshotKeyFor(name, p, s, cfg)) || cache.traces.Has(traceKey(name, p)) {
				t.Errorf("%s cache under %s stored a checkpoint or trace of a faulting setup", label, s)
			}
			if st := cache.Stats(); st != (SnapshotCacheStats{Warmups: 2}) {
				t.Errorf("%s cache under %s: stats %+v, want 2 warmups only", label, s, st)
			}
		}
		if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
			t.Errorf("directory cache under %s holds %v", s, files)
		}
	}
}
