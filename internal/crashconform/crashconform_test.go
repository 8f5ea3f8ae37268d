package crashconform

import (
	"bytes"
	"strings"
	"testing"

	"domainvirt/internal/persist"
)

// Every generated workload must be structurally valid.
func TestGenerateValid(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		w := Generate(seed)
		if err := w.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(w.Victim.Writes) == 0 {
			t.Fatalf("seed %d: victim has no writes", seed)
		}
	}
}

// The tentpole assertion: for a spread of generated workloads, recovery
// survives a crash after every recorded step under every default fault
// mode — all-pre or all-post, never a mix, never an error, always
// idempotent, always ending clean.
func TestSweepGeneratedWorkloads(t *testing.T) {
	r, err := Run(Options{Workloads: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed() {
		t.Fatalf("conformance violations:\n%s", r.Summary())
	}
	if r.Checks == 0 {
		t.Fatal("sweep performed no checks")
	}
	t.Logf("%d workloads, %d crash-recovery checks", r.Workloads, r.Checks)
}

// An aborted victim must always recover to the pre image.
func TestAbortedVictimSweep(t *testing.T) {
	w := Workload{
		Pools: 2,
		Setup: []TxSpec{{Writes: []WriteSpec{{Pool: 0, Slot: 0, Val: 5}, {Pool: 0, Slot: 1, Val: 6}}}},
		Victim: TxSpec{Abort: true, Writes: []WriteSpec{
			{Pool: 0, Slot: 0, Val: 50}, {Pool: 0, Slot: 1, Val: 60},
		}},
	}
	vs, _, err := RunWorkload(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("aborted victim violations: %v", vs)
	}
}

// Satellite: a cross-pool crash anywhere between (and around) the two
// participants' log records must recover both-or-neither — the joint
// pre/post check in checkImages enforces exactly that at every k.
func TestMultiBothOrNeither(t *testing.T) {
	w := Workload{
		Pools: 3,
		Victim: TxSpec{Multi: true, Coord: 0, Writes: []WriteSpec{
			{Pool: 1, Slot: 0, Val: 101},
			{Pool: 2, Slot: 0, Val: 202},
		}},
	}
	vs, checks, err := RunWorkload(w, Options{FaultSeeds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("both-or-neither violated: %v", vs)
	}
	if checks == 0 {
		t.Fatal("no checks performed")
	}
}

// The harness itself must be able to see inconsistency: with fences
// ignored (broken persistence hardware), recovery cannot be expected to
// survive, and the sweep must report violations — proving the checks
// are not vacuous.
func TestDetectsUnfencedMedia(t *testing.T) {
	w := Workload{
		Pools: 2,
		Setup: []TxSpec{{Writes: []WriteSpec{{Pool: 0, Slot: 2, Val: 11}, {Pool: 0, Slot: 3, Val: 12}}}},
		Victim: TxSpec{Writes: []WriteSpec{
			{Pool: 0, Slot: 2, Val: 21}, {Pool: 0, Slot: 3, Val: 22},
		}},
	}
	vs, _, err := RunWorkload(w, Options{
		Modes:      []persist.FaultMode{persist.FaultIgnoreFences | persist.FaultReorder},
		FaultSeeds: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("fence-blind media produced no violations; the checker is vacuous")
	}
}

// The checked-in corpus, replayed against current (fixed) code, must be
// clean at every crash point.
func TestCorpusFixedClean(t *testing.T) {
	repros := loadRepros(t)
	for _, r := range repros {
		vs, _, err := RunWorkload(r.Fixed(), r.Options())
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if len(vs) != 0 {
			t.Errorf("%s: fixed code still fails: %v", r.Name, vs)
		}
	}
}

// The caught half of caught-then-fixed: each repro, replayed with its
// documented bug re-introduced via the Unsafe* knobs, must fail — both
// at the trace level (the referee sees the missing fence
// deterministically) and at the image level (some reordering seed
// produces an inconsistent recovery).
func TestCorpusBugCaught(t *testing.T) {
	repros := loadRepros(t)
	for _, r := range repros {
		vs, _, err := RunWorkload(r.Buggy(), r.Options())
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		var referee, image bool
		for _, v := range vs {
			if v.Referee {
				referee = true
			} else {
				image = true
			}
		}
		if !referee {
			t.Errorf("%s: referee did not flag the missing fence", r.Name)
		}
		if !image {
			t.Errorf("%s: no crash image produced an inconsistent recovery", r.Name)
		}
	}
}

func loadRepros(t *testing.T) []Repro {
	t.Helper()
	repros, err := LoadCorpus("testdata/repros")
	if err != nil {
		t.Fatal(err)
	}
	if len(repros) != 3 {
		t.Fatalf("corpus has %d repros, want 3", len(repros))
	}
	return repros
}

// ddmin shrinks a failing crash schedule to a smaller one that still
// fails.
func TestMinimizeSchedule(t *testing.T) {
	var repro Repro
	for _, r := range loadRepros(t) {
		if r.Bug == BugDecisionNoFence {
			repro = r
		}
	}
	w := repro.Buggy()
	vs, _, err := RunWorkload(w, repro.Options())
	if err != nil {
		t.Fatal(err)
	}
	var crash *Violation
	for i := range vs {
		if !vs[i].Referee {
			crash = &vs[i]
			break
		}
	}
	if crash == nil {
		t.Fatal("no image-level violation to minimize")
	}
	min, err := MinimizeSchedule(w, *crash, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(min) == 0 || len(min) > crash.K {
		t.Fatalf("minimized schedule has %d steps (original prefix %d)", len(min), crash.K)
	}
	t.Logf("schedule shrunk %d -> %d steps", crash.K, len(min))
}

// A failing workload is persisted as a replayable .crash repro when
// CorpusDir is set, recording the mode of the first image-level
// violation.
func TestSaveViolationRepro(t *testing.T) {
	dir := t.TempDir()
	w := Generate(7)
	vs := []Violation{
		{Seed: w.Seed, Referee: true, Detail: "missing fence"},
		{Seed: w.Seed, K: 3, Mode: persist.FaultReorder | persist.FaultTorn, Detail: "mixed"},
	}
	opt := Options{CorpusDir: dir, FaultSeeds: 2}
	if err := saveViolationRepro(opt, w, vs); err != nil {
		t.Fatal(err)
	}
	repros, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(repros) != 1 {
		t.Fatalf("corpus has %d repros, want 1", len(repros))
	}
	r := repros[0]
	if r.Mode != persist.FaultReorder|persist.FaultTorn || r.Seeds != 2 {
		t.Errorf("recorded injection = mode %s seeds %d", r.Mode, r.Seeds)
	}
	if r.Workload.Victim.String() != w.Victim.String() {
		t.Errorf("victim mismatch: %q != %q", r.Workload.Victim, w.Victim)
	}
}

func TestReproRoundTrip(t *testing.T) {
	r := Repro{
		Bug:   BugDecisionNoFence,
		Mode:  persist.FaultReorder | persist.FaultTorn,
		Seeds: 4,
		Workload: Workload{
			Pools: 3,
			Setup: []TxSpec{
				{Multi: true, Coord: 1, Writes: []WriteSpec{{Pool: 0, Slot: 0, Val: 9}}},
				{Writes: []WriteSpec{{Pool: 2, Slot: 7, Val: 123}}},
			},
			Victim: TxSpec{Multi: true, Abort: true, Coord: 0, Writes: []WriteSpec{
				{Pool: 1, Slot: 1, Val: 7}, {Pool: 2, Slot: 2, Val: 8},
			}},
		},
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRepro(&buf)
	if err != nil {
		t.Fatalf("%v (text: %q)", err, buf.String())
	}
	back.Name = r.Name
	if back.Bug != r.Bug || back.Mode != r.Mode || back.Seeds != r.Seeds ||
		back.Workload.Pools != r.Workload.Pools ||
		len(back.Workload.Setup) != len(r.Workload.Setup) {
		t.Fatalf("round trip mismatch: %+v != %+v", back, r)
	}
	if back.Workload.Victim.String() != r.Workload.Victim.String() {
		t.Fatalf("victim mismatch: %q != %q", back.Workload.Victim, r.Workload.Victim)
	}
}

func TestReadReproRejectsBadInput(t *testing.T) {
	cases := []string{
		"",
		"crash repro v1\n",
		"crash repro v1\npools 2 bug nope mode reorder seeds 3\nvictim single 0 commit 0:0=1\n",
		"crash repro v1\npools 2 bug none mode bogus seeds 3\nvictim single 0 commit 0:0=1\n",
		"crash repro v1\npools 2 bug none mode reorder seeds 3\n",                                     // no victim
		"crash repro v1\npools 2 bug none mode reorder seeds 3\nvictim single 0 commit 9:0=1\n",       // pool range
		"crash repro v1\npools 2 bug none mode reorder seeds 3\nvictim multi 0 commit 0:0=1\n",        // coord written
		"crash repro v1\npools 2 bug none mode reorder seeds 3\nvictim single 0 commit 0:0=1,1:0=2\n", // spans pools
	}
	for i, c := range cases {
		if _, err := ReadRepro(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
}
