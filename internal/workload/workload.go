// Package workload defines the benchmark harness: parameterized workloads
// that execute real data-structure operations against PMO pools, emitting
// instrumentation events into a trace.Sink (usually a sim.Machine). The
// micro and whisper subpackages register the paper's Table III (WHISPER)
// and Table IV (multi-PMO) benchmarks.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"domainvirt/internal/core"
	"domainvirt/internal/pmo"
	"domainvirt/internal/trace"
)

// Params parameterizes a workload run.
type Params struct {
	// NumPMOs is the number of pools (multi-PMO benchmarks; Figure 6
	// sweeps it from 16 to 1024).
	NumPMOs int
	// Ops is the number of measured operations or transactions.
	Ops int
	// InitialElems seeds the data structure before measurement.
	InitialElems int
	// PoolSize is the per-pool capacity (8 MB in the paper's
	// multi-PMO runs; 2 GB for WHISPER).
	PoolSize uint64
	// ValueSize is the per-node payload (64 bytes in the paper).
	ValueSize int
	// Threads is the number of worker threads.
	Threads int
	// Seed drives all randomness, making runs reproducible and
	// identical across protection schemes.
	Seed int64
	// KeyspaceFactor bounds the key universe to
	// KeyspaceFactor*InitialElems (duplicate inserts update in place),
	// keeping structures near steady state on long runs.
	KeyspaceFactor int
	// InstrPerOp is non-memory compute padding per operation.
	InstrPerOp uint64
	// InstrPerAccess is non-memory compute padding around each PMO
	// access (WHISPER-style workloads).
	InstrPerAccess uint64
	// Placement selects node placement for the multi-PMO benchmarks:
	// "scatter" (default) spreads one shared structure's nodes across
	// all pools, so an operation's traversal touches several domains;
	// "perpool" keeps one independent structure per pool (InitialElems
	// elements each), so an operation touches mostly one domain. The
	// paper's Table IV wording admits both readings; the harness
	// defaults to scatter and exposes perpool as an ablation.
	Placement string
}

// PerPool reports whether the per-pool placement ablation is selected.
func (p Params) PerPool() bool { return p.Placement == "perpool" }

// Defaults fills zero fields with the multi-PMO defaults.
func (p Params) Defaults() Params {
	if p.NumPMOs == 0 {
		p.NumPMOs = 64
	}
	if p.Ops == 0 {
		p.Ops = 10000
	}
	if p.InitialElems == 0 {
		p.InitialElems = 1024
	}
	if p.PoolSize == 0 {
		p.PoolSize = 8 << 20
	}
	if p.ValueSize == 0 {
		p.ValueSize = 64
	}
	if p.Threads == 0 {
		p.Threads = 1
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	if p.KeyspaceFactor == 0 {
		p.KeyspaceFactor = 16
	}
	if p.InstrPerOp == 0 {
		p.InstrPerOp = 400
	}
	return p
}

// Keyspace returns the key universe size.
func (p Params) Keyspace() uint64 {
	return uint64(p.KeyspaceFactor) * uint64(p.InitialElems)
}

// Env is the execution environment handed to a workload: the pool store,
// an address space wired to the instrumentation sink, and a seeded RNG.
type Env struct {
	Store *pmo.Store
	Space *pmo.Space
	Rng   *rand.Rand
	P     Params

	// AtOpEnd, when non-nil, runs after each measured operation with its
	// zero-based index. Every workload's Run loop reports through OpDone,
	// which gives the experiment layer interior operation boundaries —
	// the anchor points for mid-run checkpoint forking (one measured
	// pass serving many ops horizons). The hook must not touch Rng,
	// Store, or Space: op streams are prefix-stable, and a hook that
	// perturbed them would break horizon-fork bit-identity.
	AtOpEnd func(i int)
}

// OpDone reports that measured operation i finished. Workload Run loops
// call it as their final per-iteration statement.
func (e *Env) OpDone(i int) {
	if e.AtOpEnd != nil {
		e.AtOpEnd(i)
	}
}

// NewEnv builds an environment emitting into sink.
func NewEnv(sink trace.Sink, p Params) *Env {
	p = p.Defaults()
	return &Env{
		Store: pmo.NewStore(),
		Space: pmo.NewSpace(sink),
		Rng:   rand.New(rand.NewSource(p.Seed)),
		P:     p,
	}
}

// StreamVersion names the event streams the registered workloads emit.
// Stored warmup checkpoints, mid-run checkpoints and measured-segment
// traces hash it into their keys, because none of their other key
// fields moves when a workload's code does: bump it whenever a change
// to a workload changes the Sink calls it makes for some Params, and a
// store primed by the old code then misses instead of serving the old
// stream. TestStreamGolden pins every workload's stream and fails until
// the bump and a re-pin are made.
const StreamVersion = 1

// Workload is one benchmark: Setup builds and populates its pools (not
// measured); Run executes P.Ops measured operations.
type Workload interface {
	Name() string
	Setup(env *Env) error
	Run(env *Env) error
}

// Factory constructs a fresh workload instance.
type Factory func() Workload

var (
	regMu    sync.Mutex
	registry = make(map[string]Factory)
)

// Register adds a workload factory under name; workload subpackages call
// it from init.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("workload: duplicate registration of " + name)
	}
	registry[name] = f
}

// New instantiates the named workload.
func New(name string) (Workload, error) {
	regMu.Lock()
	defer regMu.Unlock()
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, namesLocked())
	}
	return f(), nil
}

// Names lists the registered workloads, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	return namesLocked()
}

func namesLocked() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SiteBase namespaces the SETPERM instruction sites each workload uses,
// so the ERIM-style inspector can whitelist them.
const (
	SiteSetupGrant core.SiteID = 1
	SiteOpEnable   core.SiteID = 2
	SiteOpDisable  core.SiteID = 3
	SiteAccess     core.SiteID = 4
)

// ApproveSites registers every legitimate workload SETPERM site with in.
func ApproveSites(in *core.Inspector) {
	in.Approve(SiteSetupGrant, "setup read grant")
	in.Approve(SiteOpEnable, "op write enable")
	in.Approve(SiteOpDisable, "op write disable")
	in.Approve(SiteAccess, "per-access switch")
}
