package domainvirt

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestSweepSpecBounds: a cell naming an unknown scheme, a machine
// geometry the simulator's constructors refuse, no core, or a size
// outside its bound is refused with an error naming the field, by Run
// and RunHorizons before they build anything, and by RunSweepCell before
// it builds or pulls a checkpoint. The sizes past a bound are large, so
// a missing check fails the test with an allocation no test can make.
func TestSweepSpecBounds(t *testing.T) {
	valid := sweepCellSpec{
		Name:   "avl",
		Params: Params{NumPMOs: 16, InitialElems: 64, Ops: 100, Seed: 1},
		Scheme: SchemeDomainVirt,
		Cfg:    DefaultConfig(),
	}
	if err := checkCell(valid.Scheme, valid.Params, valid.Cfg); err != nil {
		t.Fatalf("a small spec was refused: %v", err)
	}
	for _, c := range []struct {
		field string
		edit  func(*sweepCellSpec)
	}{
		{"scheme", func(s *sweepCellSpec) { s.Scheme = "erim" }},
		{"Cores", func(s *sweepCellSpec) { s.Cfg.Cores = 1 << 30 }},
		{"Cores", func(s *sweepCellSpec) { s.Cfg.Cores = 0 }},
		{"Cores", func(s *sweepCellSpec) { s.Cfg.Cores = -1 }},
		{"L1TLB.Entries", func(s *sweepCellSpec) { s.Cfg.L1TLB.Entries = 1 << 40 }},
		{"L2TLB.Entries", func(s *sweepCellSpec) { s.Cfg.L2TLB.Entries = 1<<14 + 1 }},
		{"L1D.SizeBytes", func(s *sweepCellSpec) { s.Cfg.L1D.SizeBytes = 1 << 40 }},
		{"L2.SizeBytes", func(s *sweepCellSpec) { s.Cfg.L2.SizeBytes = 1 << 40 }},
		{"DTTLBEntries", func(s *sweepCellSpec) { s.Cfg.DTTLBEntries = 1 << 40 }},
		{"PTLBEntries", func(s *sweepCellSpec) { s.Cfg.PTLBEntries = 1 << 40 }},
		{"L1TLB", func(s *sweepCellSpec) { s.Cfg.L1TLB.Ways = 3 }},
		{"L2TLB", func(s *sweepCellSpec) { s.Cfg.L2TLB.Entries = 0 }},
		{"L1D", func(s *sweepCellSpec) { s.Cfg.L1D.Ways = 0 }},
		{"L2", func(s *sweepCellSpec) { s.Cfg.L2.SizeBytes = 3 << 20 }},
		{"DTTLBEntries", func(s *sweepCellSpec) { s.Scheme, s.Cfg.DTTLBEntries = SchemeMPKVirt, 12 }},
		{"PTLBEntries", func(s *sweepCellSpec) { s.Cfg.PTLBEntries = 0 }},
		{"NumPMOs", func(s *sweepCellSpec) { s.Params.NumPMOs = 1 << 40 }},
		{"NumPMOs", func(s *sweepCellSpec) { s.Params.NumPMOs = -5 }},
		{"Threads", func(s *sweepCellSpec) { s.Params.Threads = 1 << 40 }},
		{"Threads", func(s *sweepCellSpec) { s.Params.Threads = -1 }},
		{"InitialElems", func(s *sweepCellSpec) { s.Params.InitialElems = 1 << 40 }},
		{"InitialElems", func(s *sweepCellSpec) { s.Params.InitialElems = -1 }},
		{"NumPMOs×InitialElems", func(s *sweepCellSpec) { s.Params.NumPMOs, s.Params.InitialElems = 4096, 1<<13 }},
		{"Ops", func(s *sweepCellSpec) { s.Params.Ops = 1 << 40 }},
		{"Ops", func(s *sweepCellSpec) { s.Params.Ops = -1 }},
		{"PoolSize", func(s *sweepCellSpec) { s.Params.PoolSize = 1 << 40 }},
		{"PoolSize", func(s *sweepCellSpec) { s.Params.PoolSize = 1 << 63 }},
		{"ValueSize", func(s *sweepCellSpec) { s.Params.ValueSize = 1 << 40 }},
	} {
		s := valid
		c.edit(&s)
		if _, err := Run(s.Name, s.Params, s.Scheme, s.Cfg); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: Run = %v, want an error naming it", c.field, err)
		}
		if _, err := RunHorizons(s.Name, s.Params, s.Scheme, s.Cfg, []int{10}, nil); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: RunHorizons = %v, want an error naming it", c.field, err)
		}
	}

	// RunSweepCell checks before it builds. 4,097 PMOs is one past the
	// bound and cheap to build, so a missing check fails this without
	// a large allocation.
	s := valid
	s.Params.NumPMOs = 4097
	spec, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSweepCell(spec, nil, nil); err == nil || !strings.Contains(err.Error(), "NumPMOs") {
		t.Errorf("RunSweepCell on 4,097 PMOs = %v, want the bound's error", err)
	}
}

// TestSweepSpecBoundsAdmitCallers: the largest specs the repo's own
// grids send pass the check.
func TestSweepSpecBoundsAdmitCallers(t *testing.T) {
	opt := DefaultExpOptions().Paper()
	cores := opt.Cfg
	cores.Cores = 4
	buffers := opt.Cfg
	buffers.DTTLBEntries, buffers.PTLBEntries = 64, 64
	ablation := opt.microParams(256)
	ablation.Threads = 4
	for _, s := range []sweepCellSpec{
		{Name: "avl", Params: opt.microParams(1024), Scheme: SchemeLibmpk, Cfg: opt.Cfg},
		{Name: "ycsb", Params: opt.whisperParams(), Scheme: SchemeMPK, Cfg: opt.Cfg},
		{Name: "avl", Params: ablation, Scheme: SchemeMPKVirt, Cfg: cores},
		{Name: "avl", Params: opt.microParams(1024), Scheme: SchemeDomainVirt, Cfg: buffers},
	} {
		if err := checkCell(s.Scheme, s.Params, s.Cfg); err != nil {
			t.Errorf("%s at %+v refused: %v", s.Name, s.Params, err)
		}
	}
}
