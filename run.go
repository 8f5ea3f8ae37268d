package domainvirt

import (
	"fmt"
	"time"

	"domainvirt/internal/obs"
	"domainvirt/internal/sim"
	"domainvirt/internal/workload"
)

// Run executes one workload under one protection scheme: build a machine,
// set up the workload (warming caches and tables), reset statistics, and
// run the measured operations. The same Params.Seed yields the identical
// event stream under every scheme, as the paper's trace-replay
// methodology requires.
func Run(name string, p Params, scheme Scheme, cfg Config) (Result, error) {
	return runMachine(name, p, scheme, cfg, nil)
}

// RunObserved is Run with an observability recorder attached for the
// measured phase: the returned Recorder holds the epoch time series,
// the per-access and per-SETPERM latency histograms, and a stamped run
// manifest (including the wall-clock duration of the measured phase,
// stamped here — never inside the simulator). The recorder is passive:
// the Result is identical to what Run returns for the same arguments.
func RunObserved(name string, p Params, scheme Scheme, cfg Config, o ObsOptions) (Result, *Recorder, error) {
	rec := obs.NewRecorder(o)
	res, err := runMachine(name, p, scheme, cfg, rec)
	return res, rec, err
}

func runMachine(name string, p Params, scheme Scheme, cfg Config, rec *obs.Recorder) (Result, error) {
	w, err := workload.New(name)
	if err != nil {
		return Result{}, err
	}
	m := sim.NewMachine(cfg, scheme)
	env := workload.NewEnv(m, p)
	if err := w.Setup(env); err != nil {
		return Result{}, fmt.Errorf("domainvirt: %s setup under %s: %w", name, scheme, err)
	}
	m.ResetStats()
	return readyCell{m: m, w: w, env: env}.measure(name, scheme, cfg, rec)
}

// readyCell is one cell ready for its measured phase: a machine holding
// the post-ResetStats warmup state, and the workload whose Go-side state
// Setup built through env, which drives m.
type readyCell struct {
	m   *sim.Machine
	w   workload.Workload
	env *workload.Env
}

// measure runs the cell's measured operations with rec (if any) stamped
// and attached, and fails the cell on any fault.
func (c readyCell) measure(name string, scheme Scheme, cfg Config, rec *obs.Recorder) (Result, error) {
	m := c.m
	var start time.Time
	if rec != nil {
		// The manifest records the resolved (default-filled) parameters.
		rp := c.env.P
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
	runErr := c.w.Run(c.env)
	if rec != nil {
		rec.StampWall(time.Since(start))
		m.FlushObs()
	}
	if runErr != nil {
		return Result{}, fmt.Errorf("domainvirt: %s run under %s: %w", name, scheme, runErr)
	}
	res := m.Result()
	if res.Counters.DomainFaults > 0 || res.Counters.PageFaults > 0 {
		return res, fmt.Errorf("domainvirt: %s under %s raised %d domain / %d page faults (first: %v)",
			name, scheme, res.Counters.DomainFaults, res.Counters.PageFaults, m.Faults())
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

// OverheadPct returns the percent execution-time overhead of r over base.
func OverheadPct(r, base Result) float64 { return r.OverheadPct(base) }
