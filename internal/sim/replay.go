package sim

import (
	"fmt"
	"runtime"

	"domainvirt/internal/obs"
	"domainvirt/internal/par"
	"domainvirt/internal/stats"
	"domainvirt/internal/trace"
)

// ReplayPlanOptions configures NewReplayPlan.
type ReplayPlanOptions struct {
	// MaxPartitions bounds the number of trace partitions; <= 0 selects
	// GOMAXPROCS. The actual count can be lower when the trace offers
	// fewer safe split points.
	MaxPartitions int
	// Epoch is the observability sampling period in retired
	// instructions for the planning pass and any ReplayObserved calls
	// (which must use the same epoch); 0 records totals only.
	Epoch uint64
}

// ReplayPlan is a trace prepared for partitioned parallel replay: the
// trace split at safe boundaries (sync events and thread switches) plus
// a machine snapshot at every boundary, taken during one sequential
// planning pass. The planning pass is itself a complete observed replay
// — Result/Recorder/Faults expose its outcome — so the plan is the
// warmup-once artifact: build it once per (trace, scheme, config), then
// every subsequent replay of the same trace runs partition-parallel,
// each worker forking from its boundary snapshot.
type ReplayPlan struct {
	data   []byte
	cfg    Config
	scheme Scheme
	parts  []trace.Partition
	snaps  []*Snapshot
	epoch  uint64

	res    stats.Result
	faults []FaultRecord
	events uint64
	rec    *obs.Recorder
}

// NewReplayPlan builds a plan for one in-memory trace under one scheme
// and configuration: a sequential replay that snapshots the machine at
// every partition boundary.
func NewReplayPlan(data []byte, cfg Config, scheme Scheme, opt ReplayPlanOptions) (*ReplayPlan, error) {
	maxParts := opt.MaxPartitions
	if maxParts <= 0 {
		maxParts = runtime.GOMAXPROCS(0)
	}
	parts, err := trace.SplitTrace(data, maxParts)
	if err != nil {
		return nil, err
	}

	m := NewMachine(cfg, scheme)
	rec := obs.NewRecorder(obs.Options{Epoch: opt.Epoch})
	m.SetRecorder(rec)
	p := &ReplayPlan{
		data:   data,
		cfg:    cfg,
		scheme: scheme,
		parts:  parts,
		snaps:  make([]*Snapshot, len(parts)),
		epoch:  opt.Epoch,
		rec:    rec,
	}
	for i, part := range parts {
		p.snaps[i] = m.Snapshot()
		n, err := trace.ReplayPartition(data, part, m)
		if err != nil {
			return nil, fmt.Errorf("sim: planning pass partition %d: %w", i, err)
		}
		p.events += n
	}
	m.FlushObs()
	p.res = m.Result()
	p.faults = m.Faults()
	return p, nil
}

// Partitions returns the number of partitions in the plan.
func (p *ReplayPlan) Partitions() int { return len(p.parts) }

// Events returns the total event count of the trace.
func (p *ReplayPlan) Events() uint64 { return p.events }

// Result returns the sequential planning pass's result — the reference
// every parallel replay must reproduce bit-identically.
func (p *ReplayPlan) Result() stats.Result { return p.res }

// Faults returns the planning pass's fault diagnostics.
func (p *ReplayPlan) Faults() []FaultRecord { return append([]FaultRecord(nil), p.faults...) }

// Recorder returns the planning pass's recorder: a complete observed
// sequential replay (histograms, epoch series when Epoch > 0).
func (p *ReplayPlan) Recorder() *obs.Recorder { return p.rec }

// Replay replays every partition concurrently on a bounded worker pool,
// each partition on a fresh machine forked from its boundary snapshot,
// and verifies each partition's end state bit-identically against the
// next sequential checkpoint (the last partition's end state is checked
// against the planning pass's result). workers <= 0 selects GOMAXPROCS.
//
// The returned Result and fault records are those of the final machine
// state and always equal the planning pass's — any divergence is an
// error, which makes Replay the parallel-vs-sequential conformance gate.
func (p *ReplayPlan) Replay(workers int) (stats.Result, []FaultRecord, error) {
	res, _, faults, err := p.replay(workers, nil)
	return res, faults, err
}

// ReplayObserved is Replay with per-partition observability: every
// worker's recorder is seeded from the boundary sampler state, and the
// partition recorders merge in partition order into one recorder whose
// samples, histograms, and exports are byte-identical to a sequential
// observed replay. opts.Epoch must equal the plan's epoch — the sample
// boundaries are baked into the boundary snapshots.
func (p *ReplayPlan) ReplayObserved(workers int, opts obs.Options) (stats.Result, *obs.Recorder, error) {
	if opts.Epoch != p.epoch {
		return stats.Result{}, nil, fmt.Errorf("sim: ReplayObserved epoch %d, plan built with %d", opts.Epoch, p.epoch)
	}
	res, rec, _, err := p.replay(workers, &opts)
	return res, rec, err
}

func (p *ReplayPlan) replay(workers int, obsOpts *obs.Options) (stats.Result, *obs.Recorder, []FaultRecord, error) {
	n := len(p.parts)
	recs := make([]*obs.Recorder, n)
	errs := make([]error, n)
	var lastRes stats.Result
	var lastFaults []FaultRecord

	runPart := func(i int) {
		m := NewMachine(p.cfg, p.scheme)
		if obsOpts != nil {
			rec := obs.NewRecorder(*obsOpts)
			st, ok := p.snaps[i].RecorderState()
			if !ok {
				errs[i] = fmt.Errorf("sim: partition %d snapshot carries no recorder state", i)
				return
			}
			rec.Seed(st)
			// SetRecorder before Restore: Restore reinstates the sampler
			// boundary (recNext) verbatim.
			m.SetRecorder(rec)
			recs[i] = rec
		}
		m.Restore(p.snaps[i])
		if _, err := trace.ReplayPartition(p.data, p.parts[i], m); err != nil {
			errs[i] = fmt.Errorf("sim: partition %d: %w", i, err)
			return
		}
		if i == n-1 {
			if obsOpts != nil {
				m.FlushObs()
			}
			lastRes = m.Result()
			lastFaults = m.Faults()
			if lastRes != p.res {
				errs[i] = fmt.Errorf("sim: partition %d end state diverged from sequential replay", i)
			}
			return
		}
		// Interior partition: its end state must match the next
		// sequential checkpoint. Comparing Results (counters, breakdown,
		// per-core cycle maxima) against the machine re-restored from
		// that checkpoint covers every accounting-visible divergence.
		got := m.Result()
		m.Restore(p.snaps[i+1])
		if want := m.Result(); got != want {
			errs[i] = fmt.Errorf("sim: partition %d end state diverged from checkpoint %d", i, i+1)
		}
	}

	par.Do(n, workers, runPart)

	for _, err := range errs {
		if err != nil {
			return stats.Result{}, nil, nil, err
		}
	}

	var merged *obs.Recorder
	if obsOpts != nil {
		merged = recs[0]
		for i := 1; i < n; i++ {
			merged.Absorb(recs[i])
		}
	}
	return lastRes, merged, lastFaults, nil
}
