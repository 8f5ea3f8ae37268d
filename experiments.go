package domainvirt

import (
	"fmt"
	"io"

	"domainvirt/internal/report"
	"domainvirt/internal/stats"
)

// MicroBenchmarks lists the Table IV multi-PMO benchmarks in paper order.
var MicroBenchmarks = []string{"avl", "rbt", "bt", "ll", "ss"}

// WhisperBenchmarks lists the Table III benchmarks in paper order.
var WhisperBenchmarks = []string{"echo", "ycsb", "tpcc", "ctree", "hashmap", "redis"}

// ExpOptions scales the experiment suite. The defaults run in minutes on
// one core; Paper() restores the paper's operation counts.
type ExpOptions struct {
	Cfg Config

	WhisperOps  int
	WhisperInit int

	MicroOps  int
	MicroInit int

	// PMOCounts is the Figure 6/7 sweep grid.
	PMOCounts []int

	Seed int64

	// Workers bounds the number of experiment cells simulated
	// concurrently in this process: every cell of a local grid, or the
	// cells of a distributed grid that no worker delivered. 0 selects
	// GOMAXPROCS; 1 forces sequential execution. Results are identical
	// either way — only wall-clock time changes.
	Workers int

	// Progress, when non-nil, receives one "[done/total] label" line
	// per completed experiment cell (typically os.Stderr). Lines are
	// serialized; order follows completion. With Snapshots set, each
	// line is tagged "(snapshot)" when the cell started from a cached
	// warmup checkpoint or "(warmup)" when it simulated its own setup.
	Progress io.Writer

	// Snapshots, when non-nil, shares warmup machine checkpoints across
	// cells and grids: the first cell with a given (workload, params,
	// scheme, structural config) simulates its setup phase once, and
	// every later such cell starts from the checkpoint. The cache also
	// stores the trace of each (workload, params) measured segment, and
	// cells on a checkpoint replay it instead of running the workload.
	// NewSnapshotCache keeps both in memory, NewSnapshotCacheDir in a
	// directory that outlives the process. Results and observability
	// exports are bit-identical either way — only wall-clock time
	// changes. See SnapshotCache.
	Snapshots *SnapshotCache

	// SweepAddrs lists pmoworker daemon addresses. When non-empty,
	// grid cells are fanned out to these workers instead of local
	// goroutines; cells lost to a dead worker re-run locally on Workers
	// goroutines, so every table, CSV, and observability export stays
	// byte-identical to a sequential run no matter how many workers
	// survive. See cmd/pmoworker and internal/sweep.
	SweepAddrs []string
	// SweepConns is the number of protocol connections (concurrent
	// cells) per worker address; <= 0 means 1.
	SweepConns int

	// Obs configures grid observability. Results are unaffected.
	Obs ExpObs
}

// ExpObs turns on observability for every cell of an experiment grid.
type ExpObs struct {
	// Dir, when non-empty, receives per-cell manifests, per-cell epoch
	// series (when Epoch > 0), and per-scheme merged latency
	// histograms after the grid completes.
	Dir string
	// Epoch is the sampling period in retired instructions; 0 records
	// manifests and histograms only.
	Epoch uint64
}

// DefaultExpOptions returns the scaled-down defaults.
func DefaultExpOptions() ExpOptions {
	return ExpOptions{
		Cfg:         DefaultConfig(),
		WhisperOps:  8000,
		WhisperInit: 2000,
		MicroOps:    4000,
		MicroInit:   1024,
		PMOCounts:   []int{16, 32, 64, 128, 256, 512, 1024},
		Seed:        42,
	}
}

// Paper returns a copy with the paper's full scale: 100k WHISPER
// transactions, 1M multi-PMO operations, stride-16 PMO sweep.
func (o ExpOptions) Paper() ExpOptions {
	o.WhisperOps = 100000
	o.MicroOps = 1000000
	o.PMOCounts = nil
	for n := 16; n <= 1024; n += 16 {
		o.PMOCounts = append(o.PMOCounts, n)
	}
	return o
}

func (o ExpOptions) whisperParams() Params {
	return Params{
		NumPMOs:      1,
		Ops:          o.WhisperOps,
		InitialElems: o.WhisperInit,
		PoolSize:     2 << 30,
		Seed:         o.Seed,
	}
}

func (o ExpOptions) microParams(pmos int) Params {
	return Params{
		NumPMOs:      pmos,
		Ops:          o.MicroOps,
		InitialElems: o.MicroInit,
		Seed:         o.Seed,
	}
}

// --- Table V: single-PMO WHISPER overheads.

// Table5Row is one WHISPER benchmark's result: permission-switch rate and
// percent overhead for default MPK, hardware MPK virtualization, and
// hardware domain virtualization, over the unprotected baseline.
type Table5Row struct {
	Benchmark      string
	SwitchesPerSec float64
	MPKPct         float64
	MPKVirtPct     float64
	DomainVirtPct  float64
}

// Table5 reproduces Table V. The (benchmark, scheme) cells are
// independent simulations and run on a bounded worker pool; rows are
// assembled afterwards in benchmark order, so the output is identical
// to a sequential run.
func Table5(opt ExpOptions) ([]Table5Row, error) {
	p := opt.whisperParams()
	var cells []expCell
	for _, name := range WhisperBenchmarks {
		for _, s := range []Scheme{SchemeBaseline, SchemeMPK, SchemeMPKVirt, SchemeDomainVirt} {
			cells = append(cells, expCell{name, p, s})
		}
	}
	grid, err := runGrid(opt, cells)
	if err != nil {
		return nil, err
	}
	var rows []Table5Row
	for _, name := range WhisperBenchmarks {
		res := grid.at(name, p)
		base := res[SchemeBaseline]
		mpk := res[SchemeMPK]
		rows = append(rows, Table5Row{
			Benchmark:      name,
			SwitchesPerSec: mpk.SwitchesPerSec(opt.Cfg.ClockHz),
			MPKPct:         mpk.OverheadPct(base),
			MPKVirtPct:     res[SchemeMPKVirt].OverheadPct(base),
			DomainVirtPct:  res[SchemeDomainVirt].OverheadPct(base),
		})
	}
	return rows, nil
}

// Table5Report renders Table V.
func Table5Report(rows []Table5Row) *report.Table {
	t := &report.Table{
		Title:   "Table V: overhead of MPK vs. hardware MPK virtualization and domain virtualization (single-PMO WHISPER)",
		Headers: []string{"Benchmark", "Switches/sec", "MPK %", "MPK Virt %", "Domain Virt %"},
	}
	var sw, a, b, c float64
	for _, r := range rows {
		t.AddRow(r.Benchmark,
			fmt.Sprintf("%.0f", r.SwitchesPerSec),
			fmt.Sprintf("%.2f", r.MPKPct),
			fmt.Sprintf("%.2f", r.MPKVirtPct),
			fmt.Sprintf("%.2f", r.DomainVirtPct))
		sw += r.SwitchesPerSec
		a += r.MPKPct
		b += r.MPKVirtPct
		c += r.DomainVirtPct
	}
	n := float64(len(rows))
	if n > 0 {
		t.AddRow("Average",
			fmt.Sprintf("%.0f", sw/n),
			fmt.Sprintf("%.2f", a/n),
			fmt.Sprintf("%.2f", b/n),
			fmt.Sprintf("%.2f", c/n))
	}
	return t
}

// --- Table VI: multi-PMO lowerbound overheads and switch rates.

// Table6Row is one micro benchmark's switch rate and lowerbound overhead.
type Table6Row struct {
	Benchmark      string
	SwitchesPerSec float64
	LowerboundPct  float64
}

// Table6 reproduces Table VI at 1024 PMOs. Cells run on the worker
// pool; see Table5.
func Table6(opt ExpOptions) ([]Table6Row, error) {
	p := opt.microParams(1024)
	var cells []expCell
	for _, name := range MicroBenchmarks {
		for _, s := range []Scheme{SchemeBaseline, SchemeLowerbound} {
			cells = append(cells, expCell{name, p, s})
		}
	}
	grid, err := runGrid(opt, cells)
	if err != nil {
		return nil, err
	}
	var rows []Table6Row
	for _, name := range MicroBenchmarks {
		res := grid.at(name, p)
		base := res[SchemeBaseline]
		lb := res[SchemeLowerbound]
		rows = append(rows, Table6Row{
			Benchmark:      name,
			SwitchesPerSec: lb.SwitchesPerSec(opt.Cfg.ClockHz),
			LowerboundPct:  lb.OverheadPct(base),
		})
	}
	return rows, nil
}

// Table6Report renders Table VI.
func Table6Report(rows []Table6Row) *report.Table {
	t := &report.Table{
		Title:   "Table VI: lowerbound overhead and permission switch frequencies (multi-PMO, 1024 PMOs)",
		Headers: []string{"Benchmark", "Switches/sec", "Lowerbound overhead %"},
	}
	for _, r := range rows {
		t.AddRow(r.Benchmark,
			fmt.Sprintf("%.0f", r.SwitchesPerSec),
			fmt.Sprintf("%.2f", r.LowerboundPct))
	}
	return t
}

// --- Figure 6: overhead over lowerbound vs. number of PMOs.

// Fig6Result is one benchmark's sweep: percent overhead over the
// lowerbound for each scheme at each PMO count.
type Fig6Result struct {
	Benchmark  string
	X          []int
	Libmpk     []float64
	MPKVirt    []float64
	DomainVirt []float64
}

// Fig6 reproduces Figure 6. The whole (benchmark, PMO count, scheme)
// grid is fanned across the worker pool; sweep points are assembled in
// benchmark-then-PMO order afterwards.
func Fig6(opt ExpOptions) ([]Fig6Result, error) {
	fig6Schemes := []Scheme{SchemeLowerbound, SchemeLibmpk, SchemeMPKVirt, SchemeDomainVirt}
	var cells []expCell
	for _, name := range MicroBenchmarks {
		for _, pmos := range opt.PMOCounts {
			for _, s := range fig6Schemes {
				cells = append(cells, expCell{name, opt.microParams(pmos), s})
			}
		}
	}
	grid, err := runGrid(opt, cells)
	if err != nil {
		return nil, err
	}
	var out []Fig6Result
	for _, name := range MicroBenchmarks {
		fr := Fig6Result{Benchmark: name}
		for _, pmos := range opt.PMOCounts {
			res := grid.at(name, opt.microParams(pmos))
			lb := res[SchemeLowerbound]
			fr.X = append(fr.X, pmos)
			fr.Libmpk = append(fr.Libmpk, res[SchemeLibmpk].OverheadPct(lb))
			fr.MPKVirt = append(fr.MPKVirt, res[SchemeMPKVirt].OverheadPct(lb))
			fr.DomainVirt = append(fr.DomainVirt, res[SchemeDomainVirt].OverheadPct(lb))
		}
		out = append(out, fr)
	}
	return out, nil
}

// Fig6Series converts one benchmark's sweep to a renderable figure.
func Fig6Series(fr Fig6Result) *report.Series {
	s := report.NewSeries(
		fmt.Sprintf("Figure 6 (%s): overhead over lowerbound vs. number of PMOs", fr.Benchmark),
		"PMOs", "% overhead")
	s.X = fr.X
	for i := range fr.X {
		s.Add("libmpk", fr.Libmpk[i])
		s.Add("mpkvirt", fr.MPKVirt[i])
		s.Add("domainvirt", fr.DomainVirt[i])
	}
	return s
}

// --- Figure 7: averages and headline speedups.

// Fig7Result is the cross-benchmark average overhead per scheme plus the
// speedups of the hardware schemes over libmpk at selected PMO counts.
type Fig7Result struct {
	X          []int
	Libmpk     []float64
	MPKVirt    []float64
	DomainVirt []float64
	// SpeedupAt maps a PMO count to (libmpk overhead / scheme
	// overhead) pairs — the paper headlines 64 and 1024.
	SpeedupAt map[int][2]float64 // [mpkvirt, domainvirt]
}

// Fig7 averages a Figure 6 sweep. An empty sweep is an error: silently
// returning a zero Fig7Result used to propagate into blank report
// figures far from the real cause (a misconfigured PMOCounts grid or a
// filtered-out benchmark list).
func Fig7(fig6 []Fig6Result) (Fig7Result, error) {
	if len(fig6) == 0 {
		return Fig7Result{}, fmt.Errorf("Fig7: empty Figure 6 sweep (no benchmark results to average)")
	}
	n := len(fig6[0].X)
	out := Fig7Result{
		X:          fig6[0].X,
		Libmpk:     make([]float64, n),
		MPKVirt:    make([]float64, n),
		DomainVirt: make([]float64, n),
		SpeedupAt:  make(map[int][2]float64),
	}
	for _, fr := range fig6 {
		for i := 0; i < n && i < len(fr.Libmpk); i++ {
			out.Libmpk[i] += fr.Libmpk[i]
			out.MPKVirt[i] += fr.MPKVirt[i]
			out.DomainVirt[i] += fr.DomainVirt[i]
		}
	}
	for i := 0; i < n; i++ {
		k := float64(len(fig6))
		out.Libmpk[i] /= k
		out.MPKVirt[i] /= k
		out.DomainVirt[i] /= k
	}
	for i, x := range out.X {
		if out.MPKVirt[i] > 0 && out.DomainVirt[i] > 0 {
			out.SpeedupAt[x] = [2]float64{
				out.Libmpk[i] / out.MPKVirt[i],
				out.Libmpk[i] / out.DomainVirt[i],
			}
		}
	}
	return out, nil
}

// Fig7Series converts the averages to a renderable figure.
func Fig7Series(fr Fig7Result) *report.Series {
	s := report.NewSeries("Figure 7: average overhead over lowerbound vs. number of PMOs", "PMOs", "% overhead")
	s.X = fr.X
	for i := range fr.X {
		s.Add("libmpk", fr.Libmpk[i])
		s.Add("mpkvirt", fr.MPKVirt[i])
		s.Add("domainvirt", fr.DomainVirt[i])
	}
	return s
}

// --- Table VII: overhead breakdown at 1024 PMOs.

// Table7Row is one benchmark's per-category overhead percentages
// (relative to the baseline run) for one scheme.
type Table7Row struct {
	Benchmark  string
	PermPct    float64
	EntryPct   float64
	DTTMissPct float64 // MPK virtualization only
	TLBInvPct  float64 // MPK virtualization only
	PTLBPct    float64 // domain virtualization only
	AccessPct  float64 // domain virtualization only
	TotalPct   float64
}

// Table7 reproduces Table VII: the breakdown for hardware MPK
// virtualization and hardware domain virtualization at 1024 PMOs.
// Cells run on the worker pool; see Table5.
func Table7(opt ExpOptions) (mpkvirt, domvirt []Table7Row, err error) {
	p := opt.microParams(1024)
	var cells []expCell
	for _, name := range MicroBenchmarks {
		for _, s := range []Scheme{SchemeBaseline, SchemeMPKVirt, SchemeDomainVirt} {
			cells = append(cells, expCell{name, p, s})
		}
	}
	grid, err := runGrid(opt, cells)
	if err != nil {
		return nil, nil, err
	}
	for _, name := range MicroBenchmarks {
		res := grid.at(name, p)
		base := float64(res[SchemeBaseline].Cycles)
		pct := func(r Result, c stats.Category) float64 {
			return 100 * float64(r.Breakdown.Cycles[c]) / base
		}
		mv := res[SchemeMPKVirt]
		mpkvirt = append(mpkvirt, Table7Row{
			Benchmark:  name,
			PermPct:    pct(mv, stats.CatPermSwitch),
			EntryPct:   pct(mv, stats.CatEntryChange),
			DTTMissPct: pct(mv, stats.CatDTTMiss),
			TLBInvPct:  pct(mv, stats.CatTLBInval),
			TotalPct:   mv.OverheadPct(res[SchemeBaseline]),
		})
		dv := res[SchemeDomainVirt]
		domvirt = append(domvirt, Table7Row{
			Benchmark: name,
			PermPct:   pct(dv, stats.CatPermSwitch),
			EntryPct:  pct(dv, stats.CatEntryChange),
			PTLBPct:   pct(dv, stats.CatPTLBMiss),
			AccessPct: pct(dv, stats.CatPTLBAccess),
			TotalPct:  dv.OverheadPct(res[SchemeBaseline]),
		})
	}
	return mpkvirt, domvirt, nil
}

// Table7Report renders both halves of Table VII.
func Table7Report(mpkvirt, domvirt []Table7Row) *report.Table {
	t := &report.Table{
		Title:   "Table VII: overhead breakdown at 1024 PMOs (% of baseline execution time)",
		Headers: []string{"Scheme", "Source", "AVL", "RBT", "BT", "LL", "SS", "Avg"},
	}
	addRows := func(scheme string, rows []Table7Row, fields []struct {
		label string
		get   func(Table7Row) float64
	}) {
		for _, f := range fields {
			cells := []string{scheme, f.label}
			sum := 0.0
			for _, r := range rows {
				v := f.get(r)
				cells = append(cells, fmt.Sprintf("%.2f", v))
				sum += v
			}
			cells = append(cells, fmt.Sprintf("%.2f", sum/float64(len(rows))))
			t.AddRow(cells...)
		}
	}
	addRows("MPK Virt", mpkvirt, []struct {
		label string
		get   func(Table7Row) float64
	}{
		{"Permission change (%)", func(r Table7Row) float64 { return r.PermPct }},
		{"Entry changes (%)", func(r Table7Row) float64 { return r.EntryPct }},
		{"DTT misses (%)", func(r Table7Row) float64 { return r.DTTMissPct }},
		{"TLB invalidations (%)", func(r Table7Row) float64 { return r.TLBInvPct }},
		{"Total (%)", func(r Table7Row) float64 { return r.TotalPct }},
	})
	addRows("Domain Virt", domvirt, []struct {
		label string
		get   func(Table7Row) float64
	}{
		{"Permission change (%)", func(r Table7Row) float64 { return r.PermPct }},
		{"Entry changes (%)", func(r Table7Row) float64 { return r.EntryPct }},
		{"PTLB misses (%)", func(r Table7Row) float64 { return r.PTLBPct }},
		{"Access latency (%)", func(r Table7Row) float64 { return r.AccessPct }},
		{"Total (%)", func(r Table7Row) float64 { return r.TotalPct }},
	})
	return t
}

// --- Table VIII: area overheads (analytic).

// Table8Report computes the area-overhead summary from the configuration,
// assuming 1024 domains and up to 1024 threads per process as the paper
// does.
func Table8Report(cfg Config) *report.Table {
	const (
		domains = 1024
		threads = 1024
	)
	// DTTLB entry: 36-bit VA range tag + 32-bit domain ID + valid +
	// dirty + 4-bit key + 2-bit permission = 76 bits.
	dttlbBits := cfg.DTTLBEntries * 76
	// PTLB entry: 10-bit domain ID + 2-bit permission = 12 bits.
	ptlbBits := cfg.PTLBEntries * 12
	// DTT: per-(domain, thread) 2-bit permission = 256 KB; DRT holds
	// only VA->domain entries (16 KB); PT mirrors the DTT permissions.
	dttKB := domains * threads * 2 / 8 / 1024
	ptKB := domains * threads * 2 / 8 / 1024
	drtKB := 16
	tlbEntries := cfg.L1TLB.Entries + cfg.L2TLB.Entries

	t := &report.Table{
		Title:   "Table VIII: area overhead summary of the two designs",
		Headers: []string{"", "Hardware-based MPK Virtualization", "Domain Virtualization"},
	}
	t.AddRow("New registers", "1 64-bit register per core (DTT base)", "2 64-bit registers per core (DRT, PT bases)")
	t.AddRow("New buffer per core",
		fmt.Sprintf("DTTLB: %d entries x 76 bits = %d bytes", cfg.DTTLBEntries, dttlbBits/8),
		fmt.Sprintf("PTLB: %d entries x 12 bits = %d bytes", cfg.PTLBEntries, ptlbBits/8))
	t.AddRow("Other changes", "none (TLB and PKRU unchanged)",
		fmt.Sprintf("extend TLB entries by 6 bits (%d entries, +%d bytes)", tlbEntries, tlbEntries*6/8))
	t.AddRow("Memory per process",
		fmt.Sprintf("DTT: %d KB", dttKB),
		fmt.Sprintf("DRT + PT: %d KB + %d KB", drtKB, ptKB))
	return t
}
