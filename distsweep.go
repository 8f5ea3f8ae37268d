package domainvirt

import (
	"bytes"
	"encoding/json"
	"fmt"

	"domainvirt/internal/obs"
	"domainvirt/internal/sweep"
)

// Grid cells as sweep jobs: runGrid encodes every cell into a
// self-contained spec and hands the specs to internal/sweep, which ships
// them to pmoworker daemons when ExpOptions.SweepAddrs names some and
// otherwise runs them in this process through RunSweepCell. Either way
// each cell comes back as the same JSON payload (cellOut) — Result,
// warmup-hit flag, and the cell's observability artifacts as rendered
// bytes — so local and distributed grids differ only in transport.
// Because the merge happens in fixed grid order from per-cell artifacts,
// every table, CSV, manifest, series, and histogram file is
// byte-identical whichever process ran which cell.

// sweepCellSpec is the coordinator->worker description of one cell. All
// fields are exported value types, so the JSON round-trip is exact.
type sweepCellSpec struct {
	Name     string `json:"name"`
	Params   Params `json:"params"`
	Scheme   Scheme `json:"scheme"`
	Cfg      Config `json:"cfg"`
	Observed bool   `json:"observed"`
	Epoch    uint64 `json:"epoch"`
}

// cellOut is the payload of one finished cell, local or remote. Manifest
// and Series carry the exact bytes the cell's recorder rendered (nil
// for an unobserved cell); histograms merge commutatively in the export.
type cellOut struct {
	Result   Result        `json:"result"`
	Hit      bool          `json:"hit"`
	Manifest []byte        `json:"manifest,omitempty"`
	Series   []byte        `json:"series,omitempty"`
	Access   obs.Histogram `json:"access"`
	SetPerm  obs.Histogram `json:"setperm"`
}

// encodeSweepCell renders one grid cell as a wire job.
func encodeSweepCell(c expCell, opt ExpOptions) (sweep.Job, error) {
	b, err := json.Marshal(sweepCellSpec{
		Name:     c.name,
		Params:   c.p,
		Scheme:   c.scheme,
		Cfg:      opt.Cfg,
		Observed: opt.Obs.Dir != "",
		Epoch:    opt.Obs.Epoch,
	})
	return sweep.Job{Spec: b}, err
}

// RunSweepCell executes one encoded sweep cell in this process and
// returns its cellOut payload — the worker half of a distributed grid,
// and the local half of every grid: runGrid runs each cell no worker
// delivered through it. When the cell's warmup checkpoint is absent
// from cache, fetch (if non-nil) pulls it from the coordinator into the
// cache's store first, under the key the cell will load, so a fresh
// worker never re-simulates a warmup the coordinator already holds.
func RunSweepCell(spec []byte, cache *SnapshotCache, fetch sweep.Fetch) ([]byte, error) {
	var cs sweepCellSpec
	if err := json.Unmarshal(spec, &cs); err != nil {
		return nil, fmt.Errorf("domainvirt: bad sweep cell spec: %w", err)
	}
	if err := checkCell(cs.Scheme, cs.Params, cs.Cfg); err != nil {
		return nil, err
	}
	if fetch != nil && cache != nil {
		if key := SnapshotKeyFor(cs.Name, cs.Params, cs.Scheme, cs.Cfg); !cache.HasStored(key) {
			if data, ok := fetch(key); ok {
				// Best-effort install; a corrupt transfer is caught by the
				// load-time decode+restore validation and rebuilt.
				_ = cache.snaps.Put(key, data)
			}
		}
	}
	var rec *obs.Recorder
	if cs.Observed {
		rec = obs.NewRecorder(ObsOptions{Epoch: cs.Epoch})
	}
	res, hit, err := runCell(cs.Name, cs.Params, cs.Scheme, cs.Cfg, rec, cache)
	if err != nil {
		return nil, err
	}
	out := cellOut{Result: res, Hit: hit}
	if rec != nil {
		var man bytes.Buffer
		if err := rec.Manifest().WriteJSON(&man); err != nil {
			return nil, err
		}
		out.Manifest = man.Bytes()
		if cs.Epoch > 0 {
			var series bytes.Buffer
			if err := rec.WriteJSONL(&series); err != nil {
				return nil, err
			}
			out.Series = series.Bytes()
		}
		out.Access, out.SetPerm = *rec.AccessHist(), *rec.SetPermHist()
	}
	return json.Marshal(out)
}
