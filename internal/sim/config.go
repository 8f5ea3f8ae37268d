// Package sim is the trace-driven timing simulator standing in for the
// paper's Sniper-based methodology. A Machine consumes the instrumentation
// event stream (package trace) through the modeled TLB/cache/memory
// hierarchy of Table II with one of the protection engines (package core)
// plugged into the MMU, accumulating cycles with per-category overhead
// attribution.
//
// All results the harness reports are relative overheads of a protected run
// against a baseline run of the identical event stream, so the fixed-CPI
// front end substituted for Sniper's out-of-order core cancels to first
// order.
package sim

import (
	"domainvirt/internal/cache"
	"domainvirt/internal/core"
	"domainvirt/internal/mem"
	"domainvirt/internal/tlb"
)

// Config assembles the full machine configuration. DefaultConfig matches
// the paper's Table II.
type Config struct {
	Cores int

	// Base CPI for non-memory instructions as a rational CPINum/CPIDen
	// (1/4 for the paper's 4-way issue out-of-order core).
	CPINum uint64
	CPIDen uint64

	// ClockHz converts cycles to seconds for switches/sec reporting.
	ClockHz float64

	L1TLB       tlb.Config
	L2TLB       tlb.Config
	L1TLBLat    uint64
	L2TLBLat    uint64
	WalkPenalty uint64 // TLB miss penalty

	L1D cache.Config
	L2  cache.Config

	Mem mem.Config

	Costs core.Costs

	// MinorFault is the demand-mapping cost of a first-touch page,
	// charged to the base category (identical in every scheme).
	MinorFault uint64

	// FenceCost is the persist-barrier cost, also scheme-independent.
	FenceCost uint64

	// CtxSwitchCost is the kernel context-switch cost, charged to base;
	// engines add their own thread-state costs on top.
	CtxSwitchCost uint64

	// DTTLBEntries and PTLBEntries size the per-core domain caches.
	DTTLBEntries int
	PTLBEntries  int

	// MaxFaultRecords bounds the retained fault diagnostics; denials
	// beyond the cap are counted (Machine.FaultsDropped) but not stored,
	// so fault-heavy adversarial traces cannot grow memory unboundedly.
	MaxFaultRecords int

	// DisableFastPath turns off the per-core last-translation (L0) fast
	// path, forcing every access down the full TLB-lookup/engine-check
	// pipeline. Simulated cycles, counters, and verdicts are identical
	// either way (the conformance suite enforces this); the knob exists
	// for that A/B check and for perf debugging.
	DisableFastPath bool
}

// DefaultConfig returns the paper's simulation parameters (Table II) on a
// single core.
func DefaultConfig() Config {
	return Config{
		Cores:   1,
		CPINum:  1,
		CPIDen:  4,
		ClockHz: 2.2e9,

		L1TLB:       tlb.Config{Entries: 64, Ways: 4},
		L2TLB:       tlb.Config{Entries: 1536, Ways: 6},
		L1TLBLat:    1,
		L2TLBLat:    4,
		WalkPenalty: 30,

		L1D: cache.Config{SizeBytes: 32 << 10, Ways: 8, Latency: 1},
		L2:  cache.Config{SizeBytes: 1 << 20, Ways: 16, Latency: 8},

		Mem: mem.DefaultConfig(),

		Costs: core.DefaultCosts(),

		MinorFault:    0, // warmed up during setup; see Machine.ResetStats
		FenceCost:     10,
		CtxSwitchCost: 1500,

		DTTLBEntries: 16,
		PTLBEntries:  16,

		MaxFaultRecords: 64,
	}
}

// Scheme names a protection engine.
type Scheme string

// Schemes.
const (
	SchemeBaseline   Scheme = "baseline"
	SchemeLowerbound Scheme = "lowerbound"
	SchemeMPK        Scheme = "mpk"
	SchemeLibmpk     Scheme = "libmpk"
	SchemeMPKVirt    Scheme = "mpkvirt"
	SchemeDomainVirt Scheme = "domainvirt"
)

// AllSchemes lists every scheme in presentation order.
var AllSchemes = []Scheme{
	SchemeBaseline, SchemeLowerbound, SchemeMPK,
	SchemeLibmpk, SchemeMPKVirt, SchemeDomainVirt,
}

// NewEngine constructs the engine for scheme under cfg.
func NewEngine(scheme Scheme, cfg Config) core.Engine {
	switch scheme {
	case SchemeBaseline:
		return core.NewBaseline(cfg.Costs)
	case SchemeLowerbound:
		return core.NewLowerbound(cfg.Costs)
	case SchemeMPK:
		return core.NewMPK(cfg.Costs, cfg.Cores)
	case SchemeLibmpk:
		return core.NewLibmpk(cfg.Costs, cfg.Cores)
	case SchemeMPKVirt:
		return core.NewMPKVirt(cfg.Costs, cfg.Cores, cfg.DTTLBEntries)
	case SchemeDomainVirt:
		return core.NewDomainVirt(cfg.Costs, cfg.Cores, cfg.PTLBEntries)
	}
	panic("sim: unknown scheme " + string(scheme))
}
