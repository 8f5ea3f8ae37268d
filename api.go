// Package domainvirt is a library-scale reproduction of "Hardware-Based
// Domain Virtualization for Intra-Process Isolation of Persistent Memory
// Objects" (ISCA 2020). It bundles:
//
//   - a PMO library (pools, relocatable ObjectIDs, attach/detach,
//     namespace/permissions, durable transactions) — see OpenStore,
//     NewSpace, Begin;
//   - the paper's protection engines (default MPK, libmpk software
//     virtualization, hardware MPK virtualization, hardware domain
//     virtualization) behind one interface;
//   - a trace-driven timing simulator with the paper's Table II
//     parameters — see NewMachine;
//   - the WHISPER-like and multi-PMO benchmark suites plus experiment
//     runners regenerating every table and figure of the evaluation —
//     see Table5 through Fig7.
package domainvirt

import (
	"domainvirt/internal/cluster"
	"domainvirt/internal/conformance"
	"domainvirt/internal/core"
	"domainvirt/internal/crashconform"
	"domainvirt/internal/memlayout"
	"domainvirt/internal/obs"
	"domainvirt/internal/pmo"
	"domainvirt/internal/serve"
	"domainvirt/internal/sim"
	"domainvirt/internal/stats"
	"domainvirt/internal/trace"
	"domainvirt/internal/txn"
	"domainvirt/internal/workload"

	// Register the benchmark suites.
	_ "domainvirt/internal/workload/micro"
	_ "domainvirt/internal/workload/server"
	_ "domainvirt/internal/workload/whisper"
)

// PMO library API (Table I of the paper).
type (
	// Store is the OS-side PMO namespace (names, IDs, permissions,
	// file persistence).
	Store = pmo.Store
	// Pool is one persistent memory object.
	Pool = pmo.Pool
	// PoolInfo summarizes a pool for listings.
	PoolInfo = pmo.PoolInfo
	// Mode is a pool permission mode.
	Mode = pmo.Mode
	// OID is a relocatable persistent pointer (32-bit pool ID +
	// 32-bit offset).
	OID = pmo.OID
	// Space is a process address space holding PMO attachments.
	Space = pmo.Space
	// Attachment binds an attached pool to its VA region and domain.
	Attachment = pmo.Attachment
	// Tx is a durable redo-log transaction on a pool.
	Tx = txn.Tx
	// MultiTx is a two-phase durable transaction spanning several pools.
	MultiTx = txn.MultiTx
)

// Pool modes and the null OID.
const (
	ModeOwnerRead  = pmo.ModeOwnerRead
	ModeOwnerWrite = pmo.ModeOwnerWrite
	ModeOtherRead  = pmo.ModeOtherRead
	ModeOtherWrite = pmo.ModeOtherWrite
	ModeDefault    = pmo.ModeDefault
	NullOID        = pmo.NullOID
)

// OpenStore opens (or creates) a file-backed PMO store.
func OpenStore(dir string) (*Store, error) { return pmo.OpenStore(dir) }

// NewStore creates an in-memory PMO store.
func NewStore() *Store { return pmo.NewStore() }

// NewSpace creates an address space; sink may be a *Machine (simulation)
// or nil (plain library use).
func NewSpace(sink trace.Sink) *Space { return pmo.NewSpace(sink) }

// Begin starts a durable transaction on pool.
func Begin(pool *Pool) (*Tx, error) { return txn.Begin(pool) }

// Recover completes or discards an interrupted transaction on pool.
func Recover(pool *Pool) (bool, error) { return txn.Recover(pool) }

// BeginMulti starts a cross-pool transaction coordinated by coord.
func BeginMulti(coord *Pool) (*MultiTx, error) { return txn.BeginMulti(coord) }

// RecoverStore runs cross-pool recovery over every pool in the store,
// returning the number of redone logs.
func RecoverStore(store *Store) (int, error) { return txn.RecoverStore(store) }

// Protection-domain API.
type (
	// DomainID identifies a protection domain (one per attached PMO).
	DomainID = core.DomainID
	// ThreadID identifies a thread of the protected process.
	ThreadID = core.ThreadID
	// Perm is a read/write domain permission.
	Perm = core.Perm
	// Engine is a pluggable protection scheme.
	Engine = core.Engine
	// Inspector is the ERIM-style SETPERM call-site gate.
	Inspector = core.Inspector
	// Costs holds the architectural latency parameters (Table II).
	Costs = core.Costs
)

// Permissions.
const (
	PermRW   = core.PermRW
	PermR    = core.PermR
	PermNone = core.PermNone
)

// NewInspector returns an empty SETPERM site inspector.
func NewInspector() *Inspector { return core.NewInspector() }

// Simulation API.
type (
	// Machine is the trace-driven timing simulator (implements
	// trace.Sink).
	Machine = sim.Machine
	// Config is the machine configuration (Table II defaults).
	Config = sim.Config
	// Scheme names a protection engine.
	Scheme = sim.Scheme
	// Result is one simulation outcome with cycle breakdowns.
	Result = stats.Result
	// Params parameterizes a workload run.
	Params = workload.Params
	// VA is a simulated virtual address.
	VA = memlayout.VA
)

// Schemes.
const (
	SchemeBaseline   = sim.SchemeBaseline
	SchemeLowerbound = sim.SchemeLowerbound
	SchemeMPK        = sim.SchemeMPK
	SchemeLibmpk     = sim.SchemeLibmpk
	SchemeMPKVirt    = sim.SchemeMPKVirt
	SchemeDomainVirt = sim.SchemeDomainVirt
)

// DefaultConfig returns the paper's Table II machine configuration.
func DefaultConfig() Config { return sim.DefaultConfig() }

// NewMachine builds a simulator with the given scheme's engine.
func NewMachine(cfg Config, scheme Scheme) *Machine { return sim.NewMachine(cfg, scheme) }

// Workloads lists the registered benchmark names.
func Workloads() []string { return workload.Names() }

// Observability API: passive, deterministic instrumentation of a
// simulation run — epoch-sampled counter time series, latency
// histograms, and a run manifest — see RunObserved and ExpOptions.Obs.
type (
	// ObsOptions configures the observability recorder (epoch length
	// in retired instructions; 0 disables sampling).
	ObsOptions = obs.Options
	// Recorder accumulates samples, histograms, and the manifest for
	// one run.
	Recorder = obs.Recorder
	// Manifest identifies one observed run (scheme, workload, seed,
	// parameters, config hash, tool version).
	Manifest = obs.Manifest
	// Histogram is a mergeable log2-bucketed latency histogram.
	Histogram = obs.Histogram
)

// Conformance API: differential replay of generated trace programs
// through every protection engine, checking that verdicts, fault
// attribution, cycle accounting, and the lowerbound/libmpk overhead
// envelope agree across schemes.
type (
	// ConformOptions configures a conformance campaign.
	ConformOptions = conformance.Options
	// ConformReport aggregates a campaign's coverage and divergences.
	ConformReport = conformance.Report
)

// Conform runs a conformance campaign: generate Programs seeded trace
// programs, replay each under every applicable scheme, and on any
// invariant violation minimize the program and (when CorpusDir is set)
// persist a .prog repro. The error covers I/O problems only; invariant
// violations are reported via ConformReport.Diverged.
func Conform(opt ConformOptions) (*ConformReport, error) { return conformance.Run(opt) }

// Crash-consistency conformance API: kill-at-every-step recovery
// checking of the durable transaction layer under a fault-injecting
// persistence model (torn stores, reordered flushes, dropped tails).
type (
	// CrashConformOptions configures a crash-conformance sweep.
	CrashConformOptions = crashconform.Options
	// CrashConformReport aggregates a sweep's checks and violations.
	CrashConformReport = crashconform.Report
)

// CrashConform sweeps generated transaction workloads: each victim
// transaction is recorded at persistence-media granularity, then for
// every crash point and fault mode the reconstructed NVM image is
// recovered and checked for prefix consistency (all-pre or all-post,
// never a mix), idempotency, and clean logs. Failing workloads leave
// .crash repros in CorpusDir when set. The error covers setup/I-O
// problems only; contract violations are reported via Failed.
func CrashConform(opt CrashConformOptions) (*CrashConformReport, error) {
	return crashconform.Run(opt)
}

// Service API: the concurrent PMO daemon (cmd/pmod) and its closed-loop
// client and load generator (cmd/pmoload). The server shards its session
// table, runs each shard's traffic through its own protection-engine
// machine, and serves every request inside a least-privilege domain
// window on the session's own pool.
type (
	// Server is the concurrent PMO service daemon.
	Server = serve.Server
	// ServeOptions configures a Server (shards, workers, queue depth,
	// idle eviction, protection engine).
	ServeOptions = serve.Options
	// ServeClient is a closed-loop wire-protocol client.
	ServeClient = serve.Client
	// TxWrite is one write of a wire-protocol TX_COMMIT.
	TxWrite = serve.TxWrite
	// ServeRequest is one wire-protocol request; batches of them
	// pipeline through ServeClient.DoBatch on a v2 session.
	ServeRequest = serve.Request
	// ServeResponse is one wire-protocol response (DoBatch fills one
	// per request, matched by correlation ID).
	ServeResponse = serve.Response
	// LoadOptions configures a closed-loop load run against a daemon.
	LoadOptions = serve.LoadOptions
	// LoadReport is the outcome of one load run, including the
	// isolation-violation count and a latency Histogram.
	LoadReport = serve.LoadReport
)

// Wire opcodes and statuses needed to build batch requests and read
// their per-entry results.
const (
	OpRead     = serve.OpRead
	OpWrite    = serve.OpWrite
	OpTxCommit = serve.OpTxCommit
	StatusOK   = serve.StatusOK
)

// NewServer builds a PMO service daemon; call Serve with a listener.
func NewServer(opts ServeOptions) *Server { return serve.NewServer(opts) }

// DialServer connects a closed-loop client to a pmod daemon.
func DialServer(addr string) (*ServeClient, error) { return serve.Dial(addr) }

// RunLoad drives a pmod daemon with concurrent closed-loop clients and
// aggregates throughput, typed-error counts, isolation checks, and
// latency histograms.
func RunLoad(opts LoadOptions) (*serve.LoadReport, error) { return serve.RunLoad(opts) }

// Cluster API: the session router (cmd/pmorouter) that fronts N pmod
// backends. Sessions land on the backend that owns their pool via
// rendezvous hashing; a down owner yields a typed UNAVAILABLE rather
// than a silent failover onto the wrong node's (empty) pool.
type (
	// Router is the cluster session router.
	Router = cluster.Router
	// RouterOptions configures a Router (backends, timeouts, health
	// probing, per-backend connection limits).
	RouterOptions = cluster.Options
)

// NewRouter builds a session router over the given backends; call
// Serve with a listener.
func NewRouter(opts RouterOptions) (*Router, error) { return cluster.NewRouter(opts) }

// PickNode returns the cluster node that owns key under the router's
// rendezvous-hash placement (empty string for an empty node list).
func PickNode(key string, nodes []string) string { return cluster.Pick(key, nodes) }
