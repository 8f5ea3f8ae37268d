package domainvirt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"domainvirt/internal/obs"
	"domainvirt/internal/report"
	"domainvirt/internal/sim"
	"domainvirt/internal/workload"
)

// Mid-run checkpoint forking: sweep rows that differ only in the ops
// horizon share one warmup AND one measured pass. Every workload's Run
// loop reports each finished operation through Env.OpDone, so the
// machine can be checkpointed at interior operation boundaries; the
// Result captured at the end of op h is bit-identical to a full
// independent run with Ops=h, because op streams are prefix-stable (op
// i consumes the same RNG draws and emits the same events regardless of
// how many ops follow it).

// HorizonKeyFor is the content address of a mid-run checkpoint: the
// machine state at the end of operation `ops` of the measured phase.
// Unlike the warmup key, it hashes the FULL configuration — measured
// cycles embed every cost parameter, so a mid-run checkpoint is only
// valid for the exact config that produced it — plus the codec and
// workload stream versions.
func HorizonKeyFor(name string, p Params, scheme Scheme, cfg Config, ops int) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("horizon|%s|%+v|%s|cfg%s|ops%d|codec%d|stream%d",
		name, warmupParams(p), scheme, obs.ConfigHash(cfg), ops, sim.SnapshotCodecVersion, workload.StreamVersion)))
	return hex.EncodeToString(h[:16])
}

// RunHorizons runs one workload under one scheme at every ops horizon in
// horizons (strictly ascending), returning one Result per horizon.
// Instead of len(horizons) full simulations it performs at most one: a
// single measured pass to the largest horizon, reading the machine's
// counters at each interior boundary. Results are bit-identical to
// independent Run calls with p.Ops set per horizon.
//
// With a cache, every horizon's machine state is also stored as a
// mid-run checkpoint: a later call on the same cache, or on a directory
// cache in a later process, serves completed horizons from the store
// and resumes simulation from the deepest stored checkpoint at or below
// its first missing horizon — never re-simulating the prefix. A nil
// cache still gets the one-pass-many-horizons win, just without
// checkpoints.
func RunHorizons(name string, p Params, scheme Scheme, cfg Config, horizons []int, cache *SnapshotCache) ([]Result, error) {
	if err := checkCell(scheme, p, cfg); err != nil {
		return nil, err
	}
	p = p.Defaults()
	if len(horizons) == 0 {
		return nil, fmt.Errorf("domainvirt: RunHorizons: empty horizon list")
	}
	for i, h := range horizons {
		if h <= 0 {
			return nil, fmt.Errorf("domainvirt: RunHorizons: horizon %d is not positive", h)
		}
		if i > 0 && h <= horizons[i-1] {
			return nil, fmt.Errorf("domainvirt: RunHorizons: horizons must be strictly ascending (%d after %d)",
				h, horizons[i-1])
		}
	}
	results := make([]Result, len(horizons))
	have := make([]bool, len(horizons))
	byOp := make(map[int]int, len(horizons))
	for i, h := range horizons {
		byOp[h] = i
	}

	// Phase 1: serve stored mid-run checkpoints. The resume point is the
	// deepest stored horizon with no gap before it — resuming past a
	// missing horizon would skip its capture.
	resumeOp := 0
	var resumeM *sim.Machine
	if cache != nil {
		contiguous := true
		for idx, h := range horizons {
			m, ok := cache.loadCheckpoint(HorizonKeyFor(name, p, scheme, cfg, h), cfg, scheme)
			if !ok {
				contiguous = false
				continue
			}
			results[idx] = m.Result()
			have[idx] = true
			if contiguous {
				resumeOp, resumeM = h, m
			}
		}
	}
	target := 0
	for i, h := range horizons {
		if !have[i] {
			target = h
		}
	}
	if target == 0 {
		return results, nil // every horizon served from stored checkpoints
	}

	// Phase 2: one pass to the largest missing horizon, either resumed
	// from the deepest stored checkpoint or prepared like any cell, but
	// always live: a stored trace marks no op boundary for AtOpEnd, so
	// the pass neither replays one nor records one.
	runP := p
	runP.Ops = target
	var c readyCell
	var err error
	if resumeM == nil {
		c, _, err = prepare(name, runP, scheme, cfg, cache, false)
	} else {
		// Resume on the machine holding the checkpoint; the Go-side
		// workload state is rebuilt by replaying setup and the first
		// resumeOp measured ops against Discard (no simulation).
		var w workload.Workload
		if w, err = workload.New(name); err == nil {
			c, err = fork(w, name, runP, scheme, resumeM)
		}
	}
	if err != nil {
		return nil, err
	}

	c.env.AtOpEnd = func(i int) {
		op := i + 1
		if op == resumeOp {
			// Crossing the resume boundary: the Discard-replayed prefix
			// ends here and the restored machine takes over.
			c.sw.Sink = c.m
			return
		}
		if op <= resumeOp {
			return
		}
		idx, isHorizon := byOp[op]
		if !isHorizon || have[idx] {
			return
		}
		r := c.m.Result()
		results[idx] = r
		have[idx] = true
		if cache != nil && r.Counters.DomainFaults == 0 && r.Counters.PageFaults == 0 {
			cache.keep(HorizonKeyFor(name, p, scheme, cfg, op), c.m)
		}
	}
	if _, err := c.measure(name, runP, scheme, cfg, nil); err != nil {
		return nil, err
	}
	return results, nil
}

// --- The "horizons" experiment: overhead convergence vs. run length.

// HorizonRow is one ops horizon's overhead over the lowerbound, per
// scheme — the same cells as a Fig. 6 point, swept along run length
// instead of PMO count. Short horizons are warmup-adjacent (caches and
// buffers still settling); the row sequence shows where the steady-state
// overheads the paper reports stop moving.
type HorizonRow struct {
	Ops        int
	LibmpkPct  float64
	MPKVirtPct float64
	DomVirtPct float64
}

// horizonSchemes are the schemes the horizons experiment sweeps.
var horizonSchemes = []Scheme{SchemeLowerbound, SchemeLibmpk, SchemeMPKVirt, SchemeDomainVirt}

// HorizonSweep evaluates benchmark name at every ops horizon via mid-run
// checkpoint forking: one warmup and one measured pass per scheme,
// regardless of how many horizons are requested. Rows are assembled in
// horizon order from per-scheme result slices, so the output is
// independent of scheduling and bit-identical to per-horizon full runs.
func HorizonSweep(opt ExpOptions, name string, p Params, horizons []int) ([]HorizonRow, error) {
	perScheme := make(map[Scheme][]Result, len(horizonSchemes))
	for _, s := range horizonSchemes {
		rs, err := RunHorizons(name, p, s, opt.Cfg, horizons, opt.Snapshots)
		if err != nil {
			return nil, err
		}
		perScheme[s] = rs
		if opt.Progress != nil {
			fmt.Fprintf(opt.Progress, "[horizons] %s x %s: %d horizons in one pass\n", name, s, len(horizons))
		}
	}
	rows := make([]HorizonRow, 0, len(horizons))
	for i, h := range horizons {
		lb := perScheme[SchemeLowerbound][i]
		rows = append(rows, HorizonRow{
			Ops:        h,
			LibmpkPct:  perScheme[SchemeLibmpk][i].OverheadPct(lb),
			MPKVirtPct: perScheme[SchemeMPKVirt][i].OverheadPct(lb),
			DomVirtPct: perScheme[SchemeDomainVirt][i].OverheadPct(lb),
		})
	}
	return rows, nil
}

// HorizonHorizonsFor returns the default horizon ladder for a measured
// budget of ops: powers of two from ops/16 up to ops.
func HorizonHorizonsFor(ops int) []int {
	var hs []int
	for h := ops / 16; h < ops; h *= 2 {
		if h > 0 {
			hs = append(hs, h)
		}
	}
	return append(hs, ops)
}

// HorizonReport renders a horizon sweep.
func HorizonReport(name string, rows []HorizonRow) *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Horizon sweep (%s): overhead over lowerbound vs. measured ops (one pass per scheme)", name),
		Headers: []string{"Ops", "libmpk %", "MPK Virt %", "Domain Virt %"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Ops),
			fmt.Sprintf("%.2f", r.LibmpkPct),
			fmt.Sprintf("%.2f", r.MPKVirtPct),
			fmt.Sprintf("%.2f", r.DomVirtPct))
	}
	return t
}
