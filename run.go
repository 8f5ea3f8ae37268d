package domainvirt

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"domainvirt/internal/core"
	"domainvirt/internal/obs"
	"domainvirt/internal/sim"
	"domainvirt/internal/trace"
	"domainvirt/internal/workload"
)

// Run executes one workload under one protection scheme: build a machine,
// set up the workload (warming caches and tables), reset statistics, and
// run the measured operations. The same Params.Seed yields the identical
// event stream under every scheme, as the paper's trace-replay
// methodology requires.
func Run(name string, p Params, scheme Scheme, cfg Config) (Result, error) {
	res, _, err := runCell(name, p, scheme, cfg, nil, nil)
	return res, err
}

// RunObserved is Run with an observability recorder attached for the
// measured phase: the returned Recorder holds the epoch time series,
// the per-access and per-SETPERM latency histograms, and a stamped run
// manifest (including the wall-clock duration of the measured phase,
// stamped here — never inside the simulator). The recorder is passive:
// the Result is identical to what Run returns for the same arguments.
func RunObserved(name string, p Params, scheme Scheme, cfg Config, o ObsOptions) (Result, *Recorder, error) {
	rec := obs.NewRecorder(o)
	res, _, err := runCell(name, p, scheme, cfg, rec, nil)
	return res, rec, err
}

// runCell is the one cell runner behind Run, RunObserved, RunCached,
// RunSweepCell and so every grid: prepare the cell, then measure it with
// rec (if any) attached. hit reports a cell served from a cached warmup
// checkpoint.
func runCell(name string, p Params, scheme Scheme, cfg Config, rec *obs.Recorder, cache *SnapshotCache) (res Result, hit bool, err error) {
	c, hit, err := prepare(name, p, scheme, cfg, cache, true)
	if err != nil {
		return Result{}, false, err
	}
	res, err = c.measure(name, p, scheme, cfg, rec)
	return res, hit, err
}

// prepare returns the cell set up and ready to measure, and whether it
// was served from a checkpoint it did not build: served by cache when
// there is one (see SnapshotCache.ready; traced lets the cache replay
// or record the measured segment's trace), else simulated on a fresh
// machine.
func prepare(name string, p Params, scheme Scheme, cfg Config, cache *SnapshotCache, traced bool) (readyCell, bool, error) {
	if err := checkCell(scheme, p, cfg); err != nil {
		return readyCell{}, false, err
	}
	w, err := workload.New(name)
	if err != nil {
		return readyCell{}, false, err
	}
	if cache != nil {
		return cache.ready(w, name, p, scheme, cfg, traced)
	}
	c, err := setUp(w, name, p, scheme, cfg)
	return c, false, err
}

// checkCell rejects a cell before anything is built for it: an unknown
// scheme, a machine geometry the TLB, cache or PLRU constructors would
// panic on, no core, or a resolved size or ops count that is negative or
// passes a fixed bound. A cell arrives from a command line or, through
// RunSweepCell, over the network, and building a machine or a workload
// from a bad one panics or allocates without limit. Each bound admits
// every caller in the repo with room: the paper's scale (1,024 PMOs, 1M
// micro ops, 2 GiB WHISPER pools), Table II's machine and the ablations'
// 4 cores and 64-entry domain buffers.
func checkCell(scheme Scheme, p Params, cfg Config) error {
	if !slices.Contains(sim.AllSchemes, scheme) {
		return fmt.Errorf("domainvirt: cell names unknown scheme %q", scheme)
	}
	p = p.Defaults()
	for _, b := range []struct {
		what      string
		v, lo, hi int64
	}{
		{"Cores", int64(cfg.Cores), 1, 64},
		{"L1TLB.Entries", int64(cfg.L1TLB.Entries), 0, 1 << 14},
		{"L2TLB.Entries", int64(cfg.L2TLB.Entries), 0, 1 << 14},
		{"L1D.SizeBytes", int64(cfg.L1D.SizeBytes), 0, 1 << 20},
		{"L2.SizeBytes", int64(cfg.L2.SizeBytes), 0, 64 << 20},
		{"DTTLBEntries", int64(cfg.DTTLBEntries), 0, 1 << 12},
		{"PTLBEntries", int64(cfg.PTLBEntries), 0, 1 << 12},
		{"NumPMOs", int64(p.NumPMOs), 0, 4096},
		{"Threads", int64(p.Threads), 0, 64},
		{"InitialElems", int64(p.InitialElems), 0, 1 << 16},
		// Per-pool placement fills one structure per pool.
		{"NumPMOs×InitialElems", int64(p.NumPMOs) * int64(p.InitialElems), 0, 1 << 24},
		{"Ops", int64(p.Ops), 0, 1 << 26},
		{"PoolSize", int64(p.PoolSize), 0, 4 << 30},
		{"ValueSize", int64(p.ValueSize), 0, 1 << 16},
	} {
		if b.v < b.lo || b.v > b.hi {
			return fmt.Errorf("domainvirt: cell %s %d outside [%d, %d]", b.what, b.v, b.lo, b.hi)
		}
	}
	type rule struct {
		what string
		err  error
	}
	geometry := []rule{
		{"L1TLB", cfg.L1TLB.Check()},
		{"L2TLB", cfg.L2TLB.Check()},
		{"L1D", cfg.L1D.Check()},
		{"L2", cfg.L2.Check()},
	}
	switch scheme {
	case SchemeMPKVirt:
		geometry = append(geometry, rule{"DTTLBEntries", core.CheckPLRUSlots(cfg.DTTLBEntries)})
	case SchemeDomainVirt:
		geometry = append(geometry, rule{"PTLBEntries", core.CheckPLRUSlots(cfg.PTLBEntries)})
	}
	for _, g := range geometry {
		if g.err != nil {
			return fmt.Errorf("domainvirt: cell %s: %w", g.what, g.err)
		}
	}
	return nil
}

// setUp simulates w's setup on a fresh machine, then resets its
// statistics so the measured phase starts from zero. A setup that
// raises a domain or page fault fails the cell, as a measured phase
// does: so every setup that reaches a checkpoint may be replayed
// against Discard (see fork).
func setUp(w workload.Workload, name string, p Params, scheme Scheme, cfg Config) (readyCell, error) {
	m := sim.NewMachine(cfg, scheme)
	sw := &sinkSwitch{m}
	env := workload.NewEnv(sw, p)
	if err := w.Setup(env); err != nil {
		return readyCell{}, fmt.Errorf("domainvirt: %s setup under %s: %w", name, scheme, err)
	}
	if err := faultErr(m, name+" setup", scheme); err != nil {
		return readyCell{}, err
	}
	m.ResetStats()
	return readyCell{m: m, w: w, env: env, sw: sw}, nil
}

// faultErr returns the error that fails a phase of a cell, named by
// what, that left domain or page faults on m, and nil if it left none.
func faultErr(m *sim.Machine, what string, scheme Scheme) error {
	r := m.Result()
	if r.Counters.DomainFaults == 0 && r.Counters.PageFaults == 0 {
		return nil
	}
	return fmt.Errorf("domainvirt: %s under %s raised %d domain / %d page faults (first: %v)",
		what, scheme, r.Counters.DomainFaults, r.Counters.PageFaults, m.Faults())
}

// fork prepares a cell that measures on m, a machine already holding a
// checkpoint: it rebuilds w's Go-side state (pools, data structures,
// attachments) by running Setup against Discard — no simulation. The
// cell's switch still points at Discard; the caller hands it m where
// the replayed prefix ends.
func fork(w workload.Workload, name string, p Params, scheme Scheme, m *sim.Machine) (readyCell, error) {
	sw := &sinkSwitch{trace.Discard{}}
	env := workload.NewEnv(sw, p)
	if err := w.Setup(env); err != nil {
		return readyCell{}, fmt.Errorf("domainvirt: %s setup under %s: %w", name, scheme, err)
	}
	return readyCell{m: m, w: w, env: env, sw: sw}, nil
}

// sinkSwitch passes the trace.Sink interface on to a swappable embedded
// sink, so a live cell's measured phase can drive a sink its setup did
// not: the machine after a fork's Go-side replay against Discard, or a
// Tee that records the phase as well.
type sinkSwitch struct{ trace.Sink }

// readyCell is one cell ready for its measured phase: a machine holding
// the state that phase starts from, and the source of the phase's
// events. A replay cell holds a verified trace of the measured segment
// and nothing else; a live cell holds the workload whose Go-side state
// Setup built through env, whose sink sw drives m — directly, through a
// Tee into record, or from Discard until a fork's replayed prefix ends.
type readyCell struct {
	m      *sim.Machine
	w      workload.Workload
	env    *workload.Env
	sw     *sinkSwitch
	replay []byte
	record *traceRecording
}

// measure runs the cell's measured operations with rec (if any) stamped
// and attached, and fails the cell on any fault. A replay cell's events
// come from its trace, a live cell's from the workload's Run; a live
// cell that records publishes its trace only when it raised no fault.
func (c readyCell) measure(name string, p Params, scheme Scheme, cfg Config, rec *obs.Recorder) (Result, error) {
	m := c.m
	var start time.Time
	if rec != nil {
		// The manifest records the resolved (default-filled) parameters.
		rp := p.Defaults()
		rec.SetManifest(obs.Manifest{
			Scheme:      string(scheme),
			Workload:    name,
			Seed:        rp.Seed,
			Ops:         rp.Ops,
			Threads:     rp.Threads,
			Cores:       m.NumCores(),
			PMOs:        rp.NumPMOs,
			Epoch:       rec.EpochLen(),
			ConfigHash:  obs.ConfigHash(cfg),
			ToolVersion: obs.ToolVersion,
		})
		m.SetRecorder(rec)
		start = time.Now()
	}
	var runErr error
	if c.replay != nil {
		_, runErr = trace.Replay(bytes.NewReader(c.replay), m)
	} else {
		runErr = c.w.Run(c.env)
	}
	if rec != nil {
		rec.StampWall(time.Since(start))
		m.FlushObs()
	}
	if runErr != nil {
		return Result{}, fmt.Errorf("domainvirt: %s run under %s: %w", name, scheme, runErr)
	}
	res := m.Result()
	if err := faultErr(m, name, scheme); err != nil {
		return res, err
	}
	if c.record != nil {
		c.record.publish()
	}
	return res, nil
}

// RunSchemes executes the workload once per scheme with identical
// parameters and returns the results keyed by scheme.
func RunSchemes(name string, p Params, cfg Config, schemes ...Scheme) (map[Scheme]Result, error) {
	out := make(map[Scheme]Result, len(schemes))
	for _, s := range schemes {
		r, err := Run(name, p, s, cfg)
		if err != nil {
			return nil, err
		}
		out[s] = r
	}
	return out, nil
}

// RunSchemesOpt is RunSchemes on the experiment machinery: the per-scheme
// cells run on opt's bounded worker pool (opt.Workers) with warmup
// snapshot reuse through opt.Snapshots, using opt.Cfg as the machine
// configuration. Results are identical to RunSchemes — only wall-clock
// time changes.
func RunSchemesOpt(name string, p Params, opt ExpOptions, schemes ...Scheme) (map[Scheme]Result, error) {
	cells := make([]expCell, 0, len(schemes))
	for _, s := range schemes {
		cells = append(cells, expCell{name, p, s})
	}
	grid, err := runGrid(opt, cells)
	if err != nil {
		return nil, err
	}
	return grid.at(name, p), nil
}
