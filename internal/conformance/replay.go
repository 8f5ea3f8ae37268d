package conformance

import (
	"fmt"

	"domainvirt/internal/core"
	"domainvirt/internal/memlayout"
	"domainvirt/internal/mpk"
	"domainvirt/internal/sim"
)

// Divergence is one invariant violation observed during a replay.
type Divergence struct {
	Step   int    // index into the normalized op list (-1: end-of-run check)
	Scheme string // engine name, or "" for cross-scheme checks
	Kind   string // stable machine-readable class
	Detail string
}

// String implements fmt.Stringer.
func (d Divergence) String() string {
	return fmt.Sprintf("step %d scheme %q [%s]: %s", d.Step, d.Scheme, d.Kind, d.Detail)
}

// RunResult summarizes one program's differential replay.
type RunResult struct {
	Program     Program
	Schemes     []sim.Scheme // schemes actually replayed
	Steps       int          // normalized ops driven
	Skipped     int          // ops dropped by normalization
	Accesses    int
	Denials     int // accesses the reference model denied
	SetPerms    int
	MaxLive     int // peak concurrently-attached domains
	Detaches    int
	DenialFree  bool // no access was denied by the reference model
	FloorCheck  bool // invariant 4a (lowerbound floor) applied
	SwitchHeavy bool // invariant 4b (libmpk ceiling) applied
	Divergences []Divergence
	Cycles      map[sim.Scheme]uint64 // total work cycles per scheme
	Overhead    map[sim.Scheme]uint64 // protection overhead per scheme
}

// Diverged reports whether any invariant failed.
func (r *RunResult) Diverged() bool { return len(r.Divergences) > 0 }

// normalize drops ops that reference state that does not exist at that
// point (attach of a live domain, detach/setperm of a dead one, a
// malformed thread or size). This keeps the invariants sound under
// shrinking and fuzzing: engines legitimately differ in what a SETPERM
// on a never-attached domain *costs* (libmpk maps the key in, MPK
// ignores it), so such ops carry no cross-scheme meaning.
func normalize(p Program) (ops []Op, skipped, maxLive int) {
	live := make(map[core.DomainID]bool)
	for _, op := range p.Ops {
		ok := true
		if op.Th < 1 || int(op.Th) > p.Threads {
			op.Th = 1
		}
		switch op.Kind {
		case OpAttach:
			ok = op.D >= 1 && !live[op.D]
			if ok {
				live[op.D] = true
				if len(live) > maxLive {
					maxLive = len(live)
				}
			}
		case OpDetach:
			ok = live[op.D]
			if ok {
				delete(live, op.D)
			}
		case OpSetPerm:
			ok = live[op.D]
		case OpLoad, OpStore, OpFetch:
			ok = op.D >= 1
			if op.Size == 0 {
				op.Size = 8
			}
			if op.Size > RegionSize {
				op.Size = 8
			}
			if op.Off+uint64(op.Size) > RegionSize {
				op.Off %= RegionSize - uint64(op.Size)
			}
		case OpInstr:
			ok = op.N > 0
			if op.N > 1<<20 {
				op.N = 1 << 20
			}
		case OpFence:
		default:
			ok = false
		}
		if ok {
			ops = append(ops, op)
		} else {
			skipped++
		}
	}
	return ops, skipped, maxLive
}

// refModel is the independent permission oracle the engines are checked
// against: live regions plus a (domain, thread) → Perm map, with
// detach clearing the domain's grants.
type refModel struct {
	live map[core.DomainID]bool
	perm map[core.DomainID]map[core.ThreadID]core.Perm
}

func newRefModel() *refModel {
	return &refModel{
		live: make(map[core.DomainID]bool),
		perm: make(map[core.DomainID]map[core.ThreadID]core.Perm),
	}
}

func (rm *refModel) attach(d core.DomainID) {
	rm.live[d] = true
	rm.perm[d] = make(map[core.ThreadID]core.Perm)
}

func (rm *refModel) detach(d core.DomainID) {
	delete(rm.live, d)
	delete(rm.perm, d)
}

func (rm *refModel) setPerm(th core.ThreadID, d core.DomainID, p core.Perm) {
	if m := rm.perm[d]; m != nil {
		m[th] = p
	}
}

// allows is the oracle verdict: accesses outside any live domain are
// unrestricted; inside one, the thread's granted permission decides
// (default deny).
func (rm *refModel) allows(th core.ThreadID, d core.DomainID, write bool) bool {
	if !rm.live[d] {
		return true
	}
	p, ok := rm.perm[d][th]
	if !ok {
		p = core.PermNone
	}
	return p.Allows(write)
}

// schemeState is one engine's machine plus its last-step bookkeeping.
type schemeState struct {
	scheme   sim.Scheme
	m        *sim.Machine
	ideal    bool // baseline/lowerbound: never denies
	prevWork uint64
	faults   int // consumed prefix of m.Faults()
}

// SchemesFor returns the scheme set a program replays under: all six,
// minus default MPK when the program's peak live-domain count exceeds
// its 16-key capacity (MPK's Attach would fail — by design, that is the
// scaling wall the virtualization schemes remove).
func SchemesFor(p Program) []sim.Scheme {
	_, _, maxLive := normalize(p)
	out := make([]sim.Scheme, 0, len(sim.AllSchemes))
	for _, s := range sim.AllSchemes {
		if s == sim.SchemeMPK && maxLive > mpk.NumKeys {
			continue
		}
		out = append(out, s)
	}
	return out
}

// Replay drives p through every applicable scheme in lockstep, checking
// the conformance invariants after each op. It stops at the first
// divergence (the RunResult then carries exactly one entry).
func Replay(p Program, cfg sim.Config) *RunResult {
	ops, skipped, maxLive := normalize(p)
	rr := &RunResult{
		Program:  p,
		Skipped:  skipped,
		MaxLive:  maxLive,
		Cycles:   make(map[sim.Scheme]uint64),
		Overhead: make(map[sim.Scheme]uint64),
	}
	if p.Cores < 1 {
		p.Cores = 1
	}
	if p.Threads < 1 {
		p.Threads = 1
	}
	cfg.Cores = p.Cores
	// Every denied access can split across two cache lines and record
	// two faults; never let the ring drop records mid-program.
	cfg.MaxFaultRecords = 4*len(ops) + 64

	rr.Schemes = SchemesFor(p)
	runs := make([]*schemeState, 0, len(rr.Schemes))
	for _, s := range rr.Schemes {
		runs = append(runs, &schemeState{
			scheme: s,
			m:      sim.NewMachine(cfg, s),
			ideal:  s == sim.SchemeBaseline || s == sim.SchemeLowerbound,
		})
	}

	ref := newRefModel()
	diverge := func(step int, scheme, kind, format string, a ...any) {
		rr.Divergences = append(rr.Divergences, Divergence{
			Step: step, Scheme: scheme, Kind: kind,
			Detail: fmt.Sprintf(format, a...),
		})
	}

steps:
	for i, op := range ops {
		rr.Steps = i + 1
		switch op.Kind {
		case OpAttach:
			for _, run := range runs {
				if err := run.m.Attach(op.D, RegionFor(op.D), core.PermRW); err != nil {
					diverge(i, string(run.scheme), "attach-error", "attach d=%d: %v", op.D, err)
					break steps
				}
			}
			ref.attach(op.D)
		case OpDetach:
			rr.Detaches++
			for _, run := range runs {
				run.m.Detach(op.D)
			}
			ref.detach(op.D)
		case OpSetPerm:
			rr.SetPerms++
			for _, run := range runs {
				run.m.SetPerm(op.Th, op.D, op.Perm, 0)
			}
			ref.setPerm(op.Th, op.D, op.Perm)
		case OpLoad, OpStore:
			rr.Accesses++
			write := op.Kind == OpStore
			va := RegionFor(op.D).Base + memlayout.VA(op.Off)
			want := ref.allows(op.Th, op.D, write)
			wantDomain := core.NullDomain
			if ref.live[op.D] {
				wantDomain = op.D
			}
			if !want {
				rr.Denials++
			}
			for _, run := range runs {
				got := run.m.Access(op.Th, va, op.Size, write)
				switch {
				case run.ideal && !got:
					diverge(i, string(run.scheme), "ideal-denied",
						"ideal scheme denied %s th=%d d=%d off=%#x", op.Kind, op.Th, op.D, op.Off)
					break steps
				case !run.ideal && got != want:
					diverge(i, string(run.scheme), "verdict",
						"%s th=%d d=%d off=%#x size=%d: got allowed=%v, oracle says %v",
						op.Kind, op.Th, op.D, op.Off, op.Size, got, want)
					break steps
				case !run.ideal && !want:
					// Check attribution of the newly recorded fault(s).
					fs := run.m.Faults()
					if len(fs) <= run.faults {
						diverge(i, string(run.scheme), "missing-fault",
							"denied %s th=%d d=%d recorded no FaultRecord", op.Kind, op.Th, op.D)
						break steps
					}
					for _, f := range fs[run.faults:] {
						if f.Thread != op.Th || f.Write != write || f.Domain != wantDomain ||
							f.VA < va || f.VA >= va+memlayout.VA(op.Size) {
							diverge(i, string(run.scheme), "attribution",
								"fault %v does not match th=%d write=%v d=%d va=[%#x,%#x)",
								f, op.Th, write, wantDomain, va, va+memlayout.VA(op.Size))
							break steps
						}
					}
					run.faults = len(fs)
				}
			}
		case OpFetch:
			va := RegionFor(op.D).Base + memlayout.VA(op.Off)
			for _, run := range runs {
				if !run.m.Fetch(op.Th, va) {
					diverge(i, string(run.scheme), "fetch-denied",
						"instruction fetch blocked th=%d d=%d off=%#x", op.Th, op.D, op.Off)
					break steps
				}
			}
		case OpInstr:
			for _, run := range runs {
				run.m.Instr(op.Th, op.N)
			}
		case OpFence:
			for _, run := range runs {
				run.m.Fence(op.Th)
			}
		}

		// Invariant 3: cycle accounting, per scheme per step.
		for _, run := range runs {
			res := run.m.Result()
			if res.WorkSum < run.prevWork {
				diverge(i, string(run.scheme), "cycle-regress",
					"WorkSum went backwards: %d -> %d", run.prevWork, res.WorkSum)
				break steps
			}
			run.prevWork = res.WorkSum
			if got := res.Breakdown.Total(); got != res.WorkSum {
				diverge(i, string(run.scheme), "accounting",
					"breakdown total %d != core cycle sum %d", got, res.WorkSum)
				break steps
			}
		}
	}

	for _, run := range runs {
		res := run.m.Result()
		rr.Cycles[run.scheme] = res.WorkSum
		rr.Overhead[run.scheme] = res.Breakdown.OverheadCycles()
	}

	// Invariant 4: overhead ordering, where it is meaningful. The
	// comparison is over protection-attributed cycles (everything but
	// CatBase), the paper's overhead metric: raw cycle totals also move
	// with second-order TLB-capacity effects (a scheme's detach flush
	// can accidentally free the slot that saves a later walk), which are
	// not protection semantics. The floor needs denial-free (denied
	// accesses skip the cache hierarchy) and detach-free (detach flushes
	// shift invalidation debt between schemes) programs. The libmpk
	// ceiling additionally needs a switch-heavy regime: more live
	// domains than keys — so libmpk pays remap syscalls — and
	// SETPERM-dense traffic; switch-heavy programs are detach-free by
	// construction.
	rr.DenialFree = rr.Denials == 0
	rr.FloorCheck = rr.DenialFree && rr.Detaches == 0
	rr.SwitchHeavy = rr.FloorCheck && rr.MaxLive > mpk.NumKeys &&
		rr.SetPerms > 0 && rr.Accesses <= 2*rr.SetPerms
	if !rr.Diverged() && rr.FloorCheck {
		lb := rr.Overhead[sim.SchemeLowerbound]
		for _, run := range runs {
			if run.ideal {
				continue
			}
			if c := rr.Overhead[run.scheme]; c < lb {
				diverge(-1, string(run.scheme), "lowerbound-order",
					"denial-free program: overhead %d below the lowerbound's %d", c, lb)
			}
		}
	}
	if !rr.Diverged() && rr.SwitchHeavy {
		ceil := rr.Overhead[sim.SchemeLibmpk]
		for _, run := range runs {
			if run.scheme == sim.SchemeLibmpk || run.scheme == sim.SchemeBaseline {
				continue
			}
			if c := rr.Overhead[run.scheme]; c > ceil {
				diverge(-1, string(run.scheme), "libmpk-order",
					"switch-heavy program: overhead %d above libmpk's %d", c, ceil)
			}
		}
	}
	return rr
}
