package domainvirt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"domainvirt/internal/obs"
	"domainvirt/internal/sweep"
)

// expCell is one independent cell of the experiment grid: a (workload,
// parameters, scheme) triple. Params is a plain value type, so cells are
// comparable and double as result keys.
type expCell struct {
	name   string
	p      Params
	scheme Scheme
}

// label is the cell's file- and log-friendly identity. Within one grid
// the cells differ only by workload, scheme, and PMO count, so those
// three fields are enough to keep labels unique.
func (c expCell) label() string {
	return fmt.Sprintf("%s-%s-p%d", c.name, c.scheme, c.p.NumPMOs)
}

// runGrid evaluates every cell and returns the results keyed by cell.
// Every grid takes one path: each cell is encoded as a sweep job and
// handed to a sweep.Pool, which ships jobs to the pmoworkers named by
// opt.SweepAddrs (if any) and runs every job no worker delivered in this
// process through RunSweepCell, on opt.Workers goroutines (<= 0 selects
// GOMAXPROCS; 1 runs inline) taking cells in ascending order. Each cell
// builds its own machine and workload, so cells share no mutable state
// and the outcome is independent of scheduling; callers aggregate in
// their own fixed order, which keeps reports byte-identical to the
// sequential path. On failure the error of the lowest-indexed failing
// cell is returned — the same one the sequential path would have hit
// first.
//
// When opt.Progress is set, each cell prints one "[done/total] label"
// line as it completes, or a "FAIL label: err" line if it fails
// (ordering follows completion, content does not). When opt.Obs.Dir is
// set, every cell runs observed and the grid's observability data is
// exported there after all cells finish; the export loop runs in fixed
// cell order, so the files are deterministic.
func runGrid(opt ExpOptions, cells []expCell) (gridResults, error) {
	var uniq []expCell
	var jobs []sweep.Job
	seen := make(map[expCell]bool, len(cells))
	for _, c := range cells {
		if seen[c] {
			continue
		}
		seen[c] = true
		job, err := encodeSweepCell(c, opt)
		if err != nil {
			return nil, err
		}
		uniq = append(uniq, c)
		jobs = append(jobs, job)
	}

	prog := obs.NewProgress(opt.Progress, len(uniq))
	pool := sweep.NewPool(opt.SweepAddrs, opt.SweepConns, prog.Logf)
	defer pool.Close()
	if len(opt.SweepAddrs) > 0 {
		prog.Logf("sweep: %d worker connection(s) across %d address(es)", pool.Workers(), len(opt.SweepAddrs))
	}
	local := func(i int) ([]byte, error) { return RunSweepCell(jobs[i].Spec, opt.Snapshots, nil) }
	// Workers keep warmup caches of their own, so a distributed grid tags
	// its cells even without a local cache.
	tagged := opt.Snapshots != nil || len(opt.SweepAddrs) > 0
	outs := make([]cellOut, len(uniq))
	err := pool.Run(jobs, opt.Workers, local, opt.Snapshots.getEncoded, func(i int, payload []byte, err error) error {
		label := uniq[i].label()
		if err == nil {
			if err = json.Unmarshal(payload, &outs[i]); err != nil {
				err = fmt.Errorf("domainvirt: bad sweep cell payload for %s: %w", label, err)
			}
		}
		if err != nil {
			prog.Logf("FAIL %s: %v", label, err)
			return err
		}
		if tagged {
			if outs[i].Hit {
				label += " (snapshot)"
			} else {
				label += " (warmup)"
			}
		}
		prog.Done(label)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if opt.Obs.Dir != "" {
		if err := exportGridObs(opt, uniq, outs); err != nil {
			return nil, err
		}
	}
	out := make(gridResults, len(uniq))
	for i, c := range uniq {
		out[c] = outs[i].Result
	}
	return out, nil
}

// exportGridObs writes the grid's observability artifacts into
// opt.Obs.Dir: one manifest-<label>.json per cell, one
// series-<label>.jsonl per cell when epoch sampling was on, and one
// hist-<scheme>.prom per scheme holding the access and SETPERM latency
// histograms merged across that scheme's cells. It runs after the pool
// has drained, iterating cells in their
// fixed grid order; histogram merging is commutative. The output is
// byte-deterministic for a given seed regardless of scheduling or of
// which worker ran which cell.
func exportGridObs(opt ExpOptions, cells []expCell, outs []cellOut) error {
	dir := opt.Obs.Dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	writeFile := func(path string, fn func(f *os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	type histPair struct{ access, setperm obs.Histogram }
	merged := make(map[Scheme]*histPair)
	var order []Scheme
	for i, c := range cells {
		co := outs[i]
		if co.Manifest == nil {
			continue
		}
		err := writeFile(filepath.Join(dir, "manifest-"+c.label()+".json"), func(f *os.File) error {
			_, err := f.Write(co.Manifest)
			return err
		})
		if err != nil {
			return err
		}
		if opt.Obs.Epoch > 0 {
			err := writeFile(filepath.Join(dir, "series-"+c.label()+".jsonl"), func(f *os.File) error {
				_, err := f.Write(co.Series)
				return err
			})
			if err != nil {
				return err
			}
		}
		hp, ok := merged[c.scheme]
		if !ok {
			hp = &histPair{}
			merged[c.scheme] = hp
			order = append(order, c.scheme)
		}
		hp.access.Merge(&co.Access)
		hp.setperm.Merge(&co.SetPerm)
	}
	for _, s := range order {
		hp := merged[s]
		labels := fmt.Sprintf("scheme=%q", s)
		err := writeFile(filepath.Join(dir, "hist-"+string(s)+".prom"), func(f *os.File) error {
			if err := obs.PromHistogram(f, "pmo_access_cycles",
				"Per-access total latency in cycles, merged across the grid.", labels, &hp.access); err != nil {
				return err
			}
			return obs.PromHistogram(f, "pmo_setperm_cycles",
				"Per-SETPERM total cost in cycles, merged across the grid.", labels, &hp.setperm)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// gridResults holds every evaluated cell, keyed by the cell itself.
type gridResults map[expCell]Result

// at regroups one (name, params) slice of the grid into the per-scheme
// map the table aggregations consume.
func (g gridResults) at(name string, p Params) map[Scheme]Result {
	out := make(map[Scheme]Result)
	for c, r := range g {
		if c.name == name && c.p == p {
			out[c.scheme] = r
		}
	}
	return out
}
