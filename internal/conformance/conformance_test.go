package conformance

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"domainvirt/internal/core"
	"domainvirt/internal/sim"
)

// campaignPrograms is the acceptance-level batch: ≥1,000 seeded programs
// replayed differentially across all six schemes.
const campaignPrograms = 1000

// TestCampaign is the tentpole check: a large deterministic campaign
// must hold every invariant, and its generator must exercise all the
// regimes the invariants are conditional on.
func TestCampaign(t *testing.T) {
	start := time.Now()
	rep, err := Run(Options{Programs: campaignPrograms, Seed: 1, CorpusDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("campaign: %v\n%s", time.Since(start), rep.Summary())
	if rep.Diverged() {
		t.Fatalf("invariant violations:\n%s", rep.Summary())
	}
	if rep.Programs != campaignPrograms {
		t.Fatalf("ran %d programs, want %d", rep.Programs, campaignPrograms)
	}
	// Coverage: the campaign must include programs that replay all six
	// schemes AND programs whose domain count forces MPK out.
	if rep.WithMPK == 0 || rep.WithMPK == rep.Programs {
		t.Errorf("scheme coverage degenerate: %d/%d programs include default MPK", rep.WithMPK, rep.Programs)
	}
	if rep.FloorCheck == 0 {
		t.Error("no program qualified for the lowerbound-floor check")
	}
	if rep.SwitchHeavy == 0 {
		t.Error("no program qualified for the libmpk-ceiling check")
	}
	if rep.Denials == 0 {
		t.Error("no denied access generated: the fault-attribution invariant was never exercised")
	}
}

// TestGenerateDeterministic: the same (seed, profile) always yields the
// identical program.
func TestGenerateDeterministic(t *testing.T) {
	for prof := Profile(0); prof < NumProfiles; prof++ {
		a := Generate(42, prof)
		b := Generate(42, prof)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: two generations of seed 42 differ", prof)
		}
		if len(a.Ops) == 0 {
			t.Fatalf("%v: empty program", prof)
		}
	}
}

// TestReplayDeterministic: replaying the same program twice yields
// byte-identical cycle totals for every scheme.
func TestReplayDeterministic(t *testing.T) {
	p := Generate(7, ProfileChurn)
	a := Replay(p, sim.DefaultConfig())
	b := Replay(p, sim.DefaultConfig())
	if a.Diverged() || b.Diverged() {
		t.Fatalf("unexpected divergence: %v %v", a.Divergences, b.Divergences)
	}
	if !reflect.DeepEqual(a.Cycles, b.Cycles) {
		t.Fatalf("cycle totals differ between replays:\n%v\n%v", a.Cycles, b.Cycles)
	}
}

// TestSchemesFor: MPK participates exactly when the peak live-domain
// count fits its 16 keys.
func TestSchemesFor(t *testing.T) {
	small := Generate(3, ProfileLegal)       // ≤ 16 domains
	large := Generate(3, ProfileSwitchHeavy) // > 16 domains
	if got := SchemesFor(small); len(got) != len(sim.AllSchemes) {
		t.Errorf("legal program replays %d schemes, want all %d", len(got), len(sim.AllSchemes))
	}
	for _, s := range SchemesFor(large) {
		if s == sim.SchemeMPK {
			t.Error("switch-heavy program (>16 domains) must exclude default MPK")
		}
	}
}

// TestMinimize: the shrinker must reduce to a minimal op list for a
// synthetic predicate and leave non-failing programs untouched.
func TestMinimize(t *testing.T) {
	p := Generate(11, ProfileLegal)
	stores := 0
	for _, op := range p.Ops {
		if op.Kind == OpStore {
			stores++
		}
	}
	if stores < 3 {
		t.Fatalf("seed program has only %d stores", stores)
	}
	// Failing := "contains at least 3 stores". The minimum is exactly 3 ops.
	failing := func(q Program) bool {
		n := 0
		for _, op := range q.Ops {
			if op.Kind == OpStore {
				n++
			}
		}
		return n >= 3
	}
	min := Minimize(p, failing)
	if !failing(min) {
		t.Fatal("minimized program no longer fails")
	}
	if len(min.Ops) != 3 {
		t.Errorf("minimized to %d ops, want exactly 3", len(min.Ops))
	}

	unchanged := Minimize(p, func(Program) bool { return false })
	if !reflect.DeepEqual(unchanged, p) {
		t.Error("non-failing program was modified")
	}
}

// TestCorpusRoundTrip: WriteTo → ReadProgram is the identity on
// generated programs.
func TestCorpusRoundTrip(t *testing.T) {
	for prof := Profile(0); prof < NumProfiles; prof++ {
		p := Generate(5, prof)
		var buf bytes.Buffer
		if _, err := p.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		q, err := ReadProgram(&buf)
		if err != nil {
			t.Fatalf("%v: %v", prof, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("%v: round trip changed the program", prof)
		}
	}
}

// TestSaveRepro: a divergence corpus entry lands on disk and reloads.
func TestSaveRepro(t *testing.T) {
	dir := t.TempDir()
	p := Generate(9, ProfileAdversarial)
	path, err := SaveRepro(dir, p)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	q, ok := corpus[filepath.Base(path)]
	if !ok {
		t.Fatalf("saved repro %s not found in corpus", path)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatal("saved repro does not reload identically")
	}
}

// TestRegressionCorpus replays every checked-in repro: each one pinned a
// real divergence (a libmpk key-reuse leak, stale TLB entries across
// attach/detach, a Fetch accounting double-count) and must stay fixed.
func TestRegressionCorpus(t *testing.T) {
	corpus, err := LoadCorpus(filepath.Join("testdata", "regressions"))
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) < 4 {
		t.Fatalf("regression corpus has %d programs, expected the checked-in seeds", len(corpus))
	}
	for name, p := range corpus {
		rr := Replay(p, sim.DefaultConfig())
		if rr.Diverged() {
			t.Errorf("%s regressed:\n  %v", name, rr.Divergences[0])
		}
	}
}

// TestReferenceModelDenials: a hand-written adversarial program where
// the oracle's expected verdicts are known exactly; the replayer must
// agree and attribute every fault correctly (this is the direct test of
// invariants 1 and 2 on a case a human can audit).
func TestReferenceModelDenials(t *testing.T) {
	p := Program{
		Seed: -1, Profile: ProfileAdversarial, Cores: 1, Threads: 2,
		Ops: []Op{
			{Kind: OpAttach, D: 1},
			{Kind: OpStore, Th: 1, D: 1, Off: 0x40, Size: 8}, // no grant: deny
			{Kind: OpSetPerm, Th: 1, D: 1, Perm: core.PermR}, // grant read
			{Kind: OpLoad, Th: 1, D: 1, Off: 0x40, Size: 8},  // allowed
			{Kind: OpStore, Th: 1, D: 1, Off: 0x40, Size: 8}, // read-only: deny
			{Kind: OpLoad, Th: 2, D: 1, Off: 0x40, Size: 8},  // other thread: deny
			{Kind: OpDetach, D: 1},
			{Kind: OpLoad, Th: 2, D: 1, Off: 0x40, Size: 8}, // domainless: allowed
		},
	}
	rr := Replay(p, sim.DefaultConfig())
	if rr.Diverged() {
		t.Fatalf("divergence on audited program: %v", rr.Divergences[0])
	}
	if rr.Denials != 3 {
		t.Errorf("oracle denied %d accesses, want 3", rr.Denials)
	}
	if rr.Skipped != 0 {
		t.Errorf("normalization dropped %d ops from a well-formed program", rr.Skipped)
	}
}
