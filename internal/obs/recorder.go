package obs

import (
	"time"

	"domainvirt/internal/stats"
)

// CoreState is one core's cumulative observable state, snapshotted by
// the simulator at sample points.
type CoreState struct {
	Cycles    uint64
	TLBL1Hits uint64
	TLBL2Hits uint64
	TLBMisses uint64
}

// MachineState is the cumulative machine state handed to the sampler.
// The simulator builds it only at sample points (and once at Finish),
// never on the per-access path.
type MachineState struct {
	// Retired is the epoch clock: non-memory instructions + loads +
	// stores retired so far.
	Retired   uint64
	Counters  stats.Counters
	Breakdown stats.Breakdown
	Cores     []CoreState
}

// CoreSample is one core's per-epoch delta, including the engine events
// (evictions, shootdowns) attributed to the core during the epoch.
type CoreSample struct {
	Cycles    uint64
	TLBL1Hits uint64
	TLBL2Hits uint64
	TLBMisses uint64
	Events    [stats.NumEventKinds]uint64
}

// Sample is one epoch of the time series: cumulative position markers
// (Epoch, Retired, Cycles) plus the deltas of every counter, breakdown
// category, and per-core state since the previous sample.
type Sample struct {
	Epoch   int    // sample index, 0-based
	Retired uint64 // cumulative retired instructions at the sample point
	Cycles  uint64 // cumulative execution time (max across cores)
	// Counters and Breakdown hold this epoch's deltas.
	Counters  stats.Counters
	Breakdown stats.Breakdown
	Cores     []CoreSample
}

// Events sums one kind across the sample's cores.
func (s *Sample) Events(kind stats.EventKind) uint64 {
	var n uint64
	for i := range s.Cores {
		n += s.Cores[i].Events[kind]
	}
	return n
}

// Recorder accumulates one run's observability data: the epoch time
// series, the per-access and per-SETPERM latency histograms, and the run
// manifest. A Recorder belongs to exactly one Machine and one run; it is
// not safe for concurrent use (the simulator is single-threaded).
type Recorder struct {
	opt      Options
	manifest Manifest

	samples []Sample
	access  Histogram
	setperm Histogram

	last    MachineState
	evAccum [][stats.NumEventKinds]uint64

	final    MachineState
	finished bool
}

// NewRecorder returns an empty recorder.
func NewRecorder(opt Options) *Recorder {
	return &Recorder{opt: opt}
}

// EpochLen returns the sampling period in retired instructions (0 if
// time-series sampling is disabled).
func (r *Recorder) EpochLen() uint64 { return r.opt.Epoch }

// SetManifest stamps the run manifest; the caller (never the simulator)
// fills it.
func (r *Recorder) SetManifest(m Manifest) { r.manifest = m }

// StampWall records the wall-clock duration of the measured phase into
// the manifest. Wall time never enters the canonical exports.
func (r *Recorder) StampWall(d time.Duration) { r.manifest.Wall = d }

// Manifest returns the stamped manifest.
func (r *Recorder) Manifest() Manifest { return r.manifest }

// ObserveAccess records the total latency of one load/store.
func (r *Recorder) ObserveAccess(cycles uint64) { r.access.Observe(cycles) }

// ObserveSetPerm records the total cost of one SETPERM/pkey_set.
func (r *Recorder) ObserveSetPerm(cycles uint64) { r.setperm.Observe(cycles) }

// AccessHist returns the per-access latency histogram.
func (r *Recorder) AccessHist() *Histogram { return &r.access }

// SetPermHist returns the per-SETPERM cost histogram.
func (r *Recorder) SetPermHist() *Histogram { return &r.setperm }

// Event implements stats.EventSink: engine events accumulate per core
// until the next sample folds them into the series.
func (r *Recorder) Event(core int, kind stats.EventKind, n uint64) {
	for core >= len(r.evAccum) {
		r.evAccum = append(r.evAccum, [stats.NumEventKinds]uint64{})
	}
	r.evAccum[core][kind] += n
}

// TakeSample appends one epoch sample: the delta between st and the
// previous sample point, plus the engine events accumulated since.
func (r *Recorder) TakeSample(st MachineState) {
	s := Sample{
		Epoch:     len(r.samples),
		Retired:   st.Retired,
		Counters:  st.Counters.Sub(r.last.Counters),
		Breakdown: st.Breakdown.Sub(r.last.Breakdown),
		Cores:     make([]CoreSample, len(st.Cores)),
	}
	for i := range st.Cores {
		var prev CoreState
		if i < len(r.last.Cores) {
			prev = r.last.Cores[i]
		}
		cs := CoreSample{
			Cycles:    st.Cores[i].Cycles - prev.Cycles,
			TLBL1Hits: st.Cores[i].TLBL1Hits - prev.TLBL1Hits,
			TLBL2Hits: st.Cores[i].TLBL2Hits - prev.TLBL2Hits,
			TLBMisses: st.Cores[i].TLBMisses - prev.TLBMisses,
		}
		if i < len(r.evAccum) {
			cs.Events = r.evAccum[i]
			r.evAccum[i] = [stats.NumEventKinds]uint64{}
		}
		if st.Cores[i].Cycles > s.Cycles {
			s.Cycles = st.Cores[i].Cycles
		}
		s.Cores[i] = cs
	}
	r.samples = append(r.samples, s)
	r.last = st
}

// Finish closes the run: it records the final partial epoch (when
// sampling is enabled and anything happened since the last boundary) and
// keeps the end-of-run totals for the Prometheus snapshot. Idempotent.
func (r *Recorder) Finish(st MachineState) {
	if r.finished {
		return
	}
	if r.opt.Epoch > 0 && (st.Retired > r.last.Retired || len(r.samples) == 0) {
		r.TakeSample(st)
	}
	r.final = st
	r.finished = true
}

// Samples returns the recorded time series.
func (r *Recorder) Samples() []Sample { return r.samples }

// Final returns the end-of-run machine state captured by Finish.
func (r *Recorder) Final() MachineState { return r.final }

var _ stats.EventSink = (*Recorder)(nil)
