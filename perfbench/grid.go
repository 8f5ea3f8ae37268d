package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"domainvirt"
	"domainvirt/internal/core"
	"domainvirt/internal/memlayout"
	"domainvirt/internal/sim"
	"domainvirt/internal/snapstore"
	"domainvirt/internal/stats"
	"domainvirt/internal/trace"
	"domainvirt/internal/workload"
)

// gridScale divides the default experiment scale's op and initial
// element counts. At the default scale one cold pass takes 13-18 s on 2
// cores, so a run holds only two, and the host's slow phases, which last
// from seconds to minutes, moved their mean by up to 25 % from run to
// run. An eighth keeps every cell, scheme and PMO count and the Fig. 7
// shape (mpkvirt ~9.7x, domainvirt ~80x over libmpk at 64 and 1024 PMOs,
// against ~10x and ~90x at full scale) with passes of ~2.5 s cold and
// ~0.9 s warm, so a run holds several rounds and reports their medians.
const gridScale = 8

// gridOptions is the grid workload's experiment: Table V plus Fig. 6 at
// the two PMO counts Fig. 7 headlines.
func gridOptions(cfg config) domainvirt.ExpOptions {
	opt := domainvirt.DefaultExpOptions()
	opt.PMOCounts = []int{64, 1024}
	opt.WhisperOps /= gridScale
	opt.WhisperInit /= gridScale
	opt.MicroOps /= gridScale
	opt.MicroInit /= gridScale
	if cfg.Tiny {
		opt.WhisperOps, opt.WhisperInit = 200, 100
		opt.MicroOps, opt.MicroInit = 100, 64
		opt.PMOCounts = []int{16, 32}
	}
	opt.Seed = cfg.Seed
	opt.Workers = cfg.Workers
	return opt
}

// gridCell is one (workload, params, scheme) cell in the order the
// program's Table5 and Fig6 hand them to the worker pool.
type gridCell struct {
	name   string
	p      domainvirt.Params
	scheme domainvirt.Scheme
}

func (c gridCell) label() string {
	return fmt.Sprintf("%s-%s-p%d", c.name, c.scheme, c.p.NumPMOs)
}

// gridCells returns the cells of Table5 and of Fig6, each in pool order.
func gridCells(opt domainvirt.ExpOptions) (table5, fig6 []gridCell) {
	wp := domainvirt.Params{NumPMOs: 1, Ops: opt.WhisperOps, InitialElems: opt.WhisperInit, PoolSize: 2 << 30, Seed: opt.Seed}
	for _, name := range domainvirt.WhisperBenchmarks {
		for _, s := range []domainvirt.Scheme{domainvirt.SchemeBaseline, domainvirt.SchemeMPK, domainvirt.SchemeMPKVirt, domainvirt.SchemeDomainVirt} {
			table5 = append(table5, gridCell{name, wp, s})
		}
	}
	for _, name := range domainvirt.MicroBenchmarks {
		for _, pmos := range opt.PMOCounts {
			mp := domainvirt.Params{NumPMOs: pmos, Ops: opt.MicroOps, InitialElems: opt.MicroInit, Seed: opt.Seed}
			for _, s := range []domainvirt.Scheme{domainvirt.SchemeLowerbound, domainvirt.SchemeLibmpk, domainvirt.SchemeMPKVirt, domainvirt.SchemeDomainVirt} {
				fig6 = append(fig6, gridCell{name, mp, s})
			}
		}
	}
	return table5, fig6
}

// gridTables is the grid's output at full precision.
type gridTables struct {
	T5 []domainvirt.Table5Row
	F6 []domainvirt.Fig6Result
	F7 domainvirt.Fig7Result
}

func (g gridTables) digest() string {
	return digestOf(g.T5, g.F6, g.F7.X, g.F7.Libmpk, g.F7.MPKVirt, g.F7.DomainVirt, g.F7.SpeedupAt)
}

// completionClock is the Progress writer of one runGrid call: it stamps
// each "[done/total] label" line as the cell completes.
type completionClock struct {
	at    map[string]time.Time
	order []time.Time
}

func (c *completionClock) Write(p []byte) (int, error) {
	now := time.Now()
	line := strings.TrimSpace(string(p))
	if i := strings.Index(line, "] "); strings.HasPrefix(line, "[") && i > 0 {
		label := line[i+2:]
		if j := strings.Index(label, " ("); j > 0 {
			label = label[:j]
		}
		c.at[label] = now
		c.order = append(c.order, now)
	}
	return len(p), nil
}

// cellTimes reconstructs each cell's duration from completion times.
// The pool hands cells out in order and a worker takes the next cell as
// soon as it finishes one, so with w workers cell k >= w starts at the
// (k-w+1)-th completion and cells below w start with the call.
func (c *completionClock) cellTimes(cells []gridCell, start time.Time, w int) ([]float64, error) {
	if len(c.order) != len(cells) {
		return nil, fmt.Errorf("%d completion lines for %d cells", len(c.order), len(cells))
	}
	out := make([]float64, len(cells))
	for k, cell := range cells {
		done, ok := c.at[cell.label()]
		if !ok {
			return nil, fmt.Errorf("no completion line for %s", cell.label())
		}
		began := start
		if k >= w {
			began = c.order[k-w]
		}
		out[k] = done.Sub(began).Seconds()
	}
	return out, nil
}

// programPass is one pass of the program's own path: Table5 and Fig6
// through runGrid with a snapshot cache on dir.
type programPass struct {
	wall   time.Duration
	cells  []float64 // seconds per cell
	stats  domainvirt.SnapshotCacheStats
	tables gridTables
}

func runProgramPass(opt domainvirt.ExpOptions, dir string) (programPass, error) {
	// Start from a collected heap, so the garbage one pass leaves lands
	// in neither the next pass's time nor its peak.
	runtime.GC()
	var pp programPass
	cache, err := domainvirt.NewSnapshotCacheDir(dir)
	if err != nil {
		return pp, err
	}
	opt.Snapshots = cache
	t5cells, f6cells := gridCells(opt)
	w := opt.Workers
	if w < 1 {
		w = 1
	}
	t0 := time.Now()
	clk := &completionClock{at: make(map[string]time.Time)}
	opt.Progress = clk
	pp.tables.T5, err = domainvirt.Table5(opt)
	if err != nil {
		return pp, fmt.Errorf("Table5: %w", err)
	}
	t5times, err := clk.cellTimes(t5cells, t0, min(w, len(t5cells)))
	if err != nil {
		return pp, err
	}
	t1 := time.Now()
	clk = &completionClock{at: make(map[string]time.Time)}
	opt.Progress = clk
	pp.tables.F6, err = domainvirt.Fig6(opt)
	if err != nil {
		return pp, fmt.Errorf("Fig6: %w", err)
	}
	pp.wall = time.Since(t0)
	f6times, err := clk.cellTimes(f6cells, t1, min(w, len(f6cells)))
	if err != nil {
		return pp, err
	}
	pp.cells = append(t5times, f6times...)
	if pp.tables.F7, err = domainvirt.Fig7(pp.tables.F6); err != nil {
		return pp, err
	}
	pp.stats = cache.Stats()
	return pp, nil
}

// minGridRounds is the fewest cold-then-warm rounds a grid run makes; it
// makes rounds until the run's seconds are up.
const minGridRounds = 3

// gridWarmPasses is how many warm passes follow each cold pass. A warm
// pass takes about a third of a cold one, so a slow second of the host
// decides it more often; two per round give its median as many samples
// again.
const gridWarmPasses = 2

// gridSetups is how many empty-store set-ups are timed before each round
// and once more after the last, so the samples span the run rather than
// one instant of a host whose speed drifts from second to second. One
// set-up takes tens of microseconds, mostly syscalls, and single samples
// scatter by tens of per cent, so a round takes a few hundred.
const gridSetups = 256

// paperSpeedups are the paper's Fig. 7 headline speedups over libmpk
// ([mpkvirt, domainvirt]), as quoted in EXPERIMENTS.md.
var paperSpeedups = map[int][2]float64{64: {10.1, 25.8}, 1024: {10.6, 52.5}}

func runGrid(cfg config, out *output) error {
	opt := gridOptions(cfg)
	t5cells, f6cells := gridCells(opt)
	ncells := int64(len(t5cells) + len(f6cells))
	dir := filepath.Join(cfg.Dir, "grid-store")
	defer os.RemoveAll(dir)
	var setups []float64
	emptyStore := func() error {
		if err := os.RemoveAll(dir); err != nil { // the last round's store
			return err
		}
		// Time set-up on a collected heap, not against the last pass's
		// background sweeping.
		runtime.GC()
		ts, err := timeSetups(gridSetups, func() error {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			_, err := domainvirt.NewSnapshotCacheDir(dir)
			return err
		}, func() {})
		setups = append(setups, ts...)
		return err
	}

	// Each round is a cold pass into an empty store and gridWarmPasses
	// warm passes on it; the walls are medians over the passes.
	out.linef("grid: %d cells, %d workers, seed %d, 1/%d of the default scale", ncells, opt.Workers, cfg.Seed, gridScale)
	var colds, warms []programPass
	var coldWalls, warmWalls, cellTimes []float64
	var total time.Duration
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for round := 0; round < minGridRounds || time.Now().Before(deadline); round++ {
		if err := emptyStore(); err != nil {
			return err
		}
		passes := make([]programPass, 1+gridWarmPasses)
		for i := range passes {
			var err error
			if passes[i], err = runProgramPass(opt, dir); err != nil {
				return err
			}
			p := passes[i]
			out.linef("  %s pass %.4fs (warmups=%d disk_hits=%d disk_rejects=%d)", []string{"cold", "warm"}[min(i, 1)],
				p.wall.Seconds(), p.stats.Warmups, p.stats.DiskHits, p.stats.DiskRejects)
			cellTimes = append(cellTimes, p.cells...)
			total += p.wall
		}
		out.count(int64(len(passes))*ncells, 0)
		cold := passes[0]
		checkGrid(cfg, out, cold, passes[1:], ncells)
		if round > 0 && cold.tables.digest() != colds[0].tables.digest() {
			out.fail("round %d digest differs from round 0", round)
			out.count(0, ncells)
		}
		colds, coldWalls = append(colds, cold), append(coldWalls, cold.wall.Seconds())
		for _, warm := range passes[1:] {
			warms, warmWalls = append(warms, warm), append(warmWalls, warm.wall.Seconds())
		}
	}
	if err := emptyStore(); err != nil {
		return err
	}
	cold, warm := colds[0], warms[0]
	out.linef("  %d rounds; cold pass median %.4fs, warm pass median %.4fs (%d warm passes)", len(colds), median(coldWalls), median(warmWalls), len(warms))

	for _, x := range cold.tables.F7.X {
		if sp, ok := cold.tables.F7.SpeedupAt[x]; ok {
			paper := paperSpeedups[x]
			out.linef("  Fig. 7 speedup over libmpk at %d PMOs: mpkvirt %.1fx (paper %.1fx), domainvirt %.1fx (paper %.1fx)",
				x, sp[0], paper[0], sp[1], paper[1])
		}
	}

	lat := make([]int64, len(cellTimes))
	for i, s := range cellTimes {
		lat[i] = int64(s * 1e9)
	}
	// One latency window is one round's cells, cold and warm.
	round := int((1 + gridWarmPasses) * ncells)
	winP50, winP99 := windowPercentiles(lat, round, 50), windowPercentiles(lat, round, 99)
	p50, p99 := percentileOf(lat, 50), percentileOf(lat, 99)
	out.linef("  cell latency over all passes: p50 %.1fus (n=%d, %d beyond), p99 %.1fus (n=%d, %d beyond)",
		float64(p50.Value)/1e3, p50.N, p50.Beyond, float64(p99.Value)/1e3, p99.N, p99.Beyond)
	out.linef("  per round of %d cells, median over %d rounds: p50 %.1fus, p99 %.1fus",
		round, len(winP50), median(winP50)/1e3, median(winP99)/1e3)
	out.e2e("setup_s", median(setups))
	out.e2e("wall_s", median(coldWalls))
	out.e2e("warm_wall_s", median(warmWalls))
	out.e2e("ops_per_s", float64(len(cellTimes))/total.Seconds())
	out.e2e("p50_us", median(winP50)/1e3)
	out.e2e("p99_us", median(winP99)/1e3)
	out.e2e("peak_rss_mb", peakRSSMB())
	if !cfg.Traced {
		return nil
	}

	out.layer("grid.warmups", float64(warm.stats.Warmups))
	out.layer("grid.disk_hits", float64(warm.stats.DiskHits))
	out.layer("grid.disk_rejects", float64(warm.stats.DiskRejects))
	out.layer("grid.cold_warmups", float64(cold.stats.Warmups))
	out.layer("grid.cold_disk_hits", float64(cold.stats.DiskHits))
	out.layer("grid.cold_disk_rejects", float64(cold.stats.DiskRejects))
	return traceGrid(cfg, out, opt, cold.tables.digest(), median(coldWalls))
}

// checkGrid applies the grid's correctness rules: goldens, warm equals
// cold, and the snapshot cache served every cell the way it should.
func checkGrid(cfg config, out *output, cold programPass, warms []programPass, ncells int64) {
	d := cold.tables.digest()
	out.linef("  digest %s", d)
	if want, ok := goldenGrid(cfg); ok && d != want {
		out.fail("grid digest %s for seed %d, golden %s", d, cfg.Seed, want)
		out.count(0, ncells)
	}
	n := int(ncells)
	if cold.stats != (domainvirt.SnapshotCacheStats{Warmups: n}) {
		out.fail("cold pass cache stats %+v, want %d warmups only", cold.stats, n)
	}
	for _, warm := range warms {
		if wd := warm.tables.digest(); wd != d {
			out.fail("warm pass digest %s differs from cold %s", wd, d)
			out.count(0, ncells)
		}
		if warm.stats != (domainvirt.SnapshotCacheStats{DiskHits: n}) {
			out.fail("warm pass cache stats %+v, want %d disk hits only", warm.stats, n)
		}
	}
}

// gridSpans interns the traced grid's span names.
type gridSpans struct {
	lane, cell, wait, get, put, setup, snapshot, encode, decode, restore, run, setupGo, probeSetup, runGo uint16
}

func newGridSpans(t *tracer) gridSpans {
	return gridSpans{
		lane: t.id("bench.lane"), cell: t.id("grid.cell"), wait: t.id("grid.wait"),
		get: t.id("snapstore.get"), put: t.id("snapstore.put"),
		setup: t.id("sim.setup"), snapshot: t.id("sim.snapshot"), encode: t.id("sim.encode"),
		decode: t.id("sim.decode"), restore: t.id("sim.restore"), run: t.id("sim.run"),
		setupGo: t.id("workload.setup_go"), probeSetup: t.id("workload.probe_setup"), runGo: t.id("workload.run_go"),
	}
}

// cellTrace is what the traced re-execution of one cell measured.
type cellTrace struct {
	res          stats.Result
	cell         time.Duration
	simSetup     time.Duration // simulated Setup (cold)
	setupGo      time.Duration // Setup against Discard before the fork
	run          time.Duration // measured Run on the restored machine
	runGo        time.Duration // the same Run against Discard (cold)
	snapBytes    int
	snapstoreHit bool
	err          error
}

// traceGrid re-executes both passes cell by cell through the layer
// calls runCachedMachine makes, one span per call.
func traceGrid(cfg config, out *output, opt domainvirt.ExpOptions, programDigest string, programWall float64) error {
	t := newTracer()
	sp := newGridSpans(t)
	t5cells, f6cells := gridCells(opt)
	cells := append(append([]gridCell(nil), t5cells...), f6cells...)
	t.refs = func(ref int64) string {
		pass := "cold"
		if ref >= int64(len(cells)) {
			pass = "warm"
		}
		return pass + ":" + cells[ref%int64(len(cells))].label()
	}
	dir := filepath.Join(cfg.Dir, "grid-traced-store")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := snapstore.Open(dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var traces [2][]cellTrace
	var walls [2]time.Duration
	for pass := 0; pass < 2; pass++ {
		warm := pass == 1
		runtime.GC()
		recs := make([]*recorder, opt.Workers)
		roots := make([]int32, opt.Workers)
		for i := range recs {
			recs[i] = t.recorder()
			roots[i] = recs[i].begin(sp.lane, -1, int64(i))
		}
		traces[pass] = make([]cellTrace, len(cells))
		start := time.Now()
		offset := 0
		for _, group := range [][]gridCell{t5cells, f6cells} {
			idle := pool(t, opt.Workers, len(group), func(lane, k int) {
				i := offset + k
				ref := int64(pass*len(cells) + i)
				traces[pass][i] = traceCell(recs[lane], roots[lane], sp, ref, cells[i], opt.Cfg, st, warm)
			})
			// A lane out of cells waits for the group's last one, as
			// runGrid's pool does before Fig6 starts or the pass ends.
			end := t.now()
			last := int64(pass*len(cells) + offset + len(group) - 1)
			for lane, r := range recs {
				r.add(sp.wait, roots[lane], last, idle[lane], end)
			}
			offset += len(group)
		}
		walls[pass] = time.Since(start)
		for i, r := range recs {
			r.end(roots[i])
		}
	}

	// The traced composition must reproduce the program's tables.
	var failed int64
	for pass := range traces {
		for i, ct := range traces[pass] {
			if ct.err != nil {
				out.fail("traced %s: %v", cells[i].label(), ct.err)
				failed++
				continue
			}
			if pass == 1 && ct.res != traces[0][i].res {
				out.fail("traced warm %s result differs from cold", cells[i].label())
				failed++
			}
			if ct.snapstoreHit != (pass == 1) {
				out.fail("traced %s: snapstore hit=%v in the %s pass", cells[i].label(), ct.snapstoreHit, []string{"cold", "warm"}[pass])
			}
		}
	}
	out.count(int64(2*len(cells)), failed)
	if failed == 0 {
		tables, err := tablesFrom(opt, cells, traces[0])
		if err != nil {
			return err
		}
		if d := tables.digest(); d != programDigest {
			out.fail("traced composition digest %s differs from the program's %s", d, programDigest)
		} else {
			out.linef("  traced composition reproduces the program's tables (digest %s)", d)
		}
	}

	b := t.selfTimes("bench.lane", opt.Workers, walls[0]+walls[1])
	b.report(out, "grid", maxBenchShare)
	// Traced cold cells also run Setup and Run against Discard, which the
	// program never does; that work, spread over the workers, is not
	// tracing overhead.
	probe := (b.ByName["workload.probe_setup"] + b.ByName["workload.run_go"]) / float64(opt.Workers)
	out.layer("bench.trace_overhead", (walls[0].Seconds()-probe)/programWall)

	var cellSum, cellMax, setupGo, runGo, simSetup float64
	var snapBytes int
	type access struct{ ns, n float64 }
	perScheme := make(map[string]*access)
	for _, s := range schemes {
		perScheme[s] = &access{}
	}
	var counters stats.Counters
	var bd stats.Breakdown
	for pass := range traces {
		for i, ct := range traces[pass] {
			cellSum += ct.cell.Seconds()
			cellMax = max(cellMax, ct.cell.Seconds())
			setupGo += ct.setupGo.Seconds()
			if pass == 0 {
				runGo += ct.runGo.Seconds()
				simSetup += (ct.simSetup - ct.setupGo).Seconds()
				snapBytes += ct.snapBytes
				a := perScheme[string(cells[i].scheme)]
				a.ns += float64(ct.run - ct.runGo)
				a.n += float64(ct.res.Counters.Loads + ct.res.Counters.Stores)
				counters.Merge(&ct.res.Counters)
				bd.Merge(&ct.res.Breakdown)
			}
		}
	}
	out.layer("grid.cell_max_s", cellMax)
	out.layer("grid.idle_ratio", 1-cellSum/(float64(opt.Workers)*(walls[0]+walls[1]).Seconds()))
	out.layer("workload.setup_go_s", setupGo)
	out.layer("workload.run_go_s", runGo)
	out.layer("sim.setup_s", simSetup)
	for _, s := range schemes {
		if a := perScheme[s]; a.n > 0 {
			out.layer("sim.ns_per_access."+s, a.ns/a.n)
		}
	}
	out.layer("sim.snapshot_s", b.ByName["sim.snapshot"])
	out.layer("sim.encode_s", b.ByName["sim.encode"])
	out.layer("sim.decode_s", b.ByName["sim.decode"])
	out.layer("sim.restore_s", b.ByName["sim.restore"])
	out.layer("snapstore.put_s", b.ByName["snapstore.put"])
	out.layer("snapstore.get_s", b.ByName["snapstore.get"])
	out.layer("snapstore.bytes", float64(snapBytes))
	layerCounts(out, counters, bd)
	out.linef("  traced cold pass %.4fs, warm pass %.4fs", walls[0].Seconds(), walls[1].Seconds())
	return t.dump(spanPath(cfg.Dir, "grid"))
}

// pool runs fn(lane, k) for k in [0, n) on w workers that take work in
// order, the way the program's grid pool does. It returns when, in t's
// time, each lane found no more work.
func pool(t *tracer, w, n int, fn func(lane, k int)) []int64 {
	jobs := make(chan int)
	idle := make([]int64, w)
	var wg sync.WaitGroup
	for lane := 0; lane < w; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for k := range jobs {
				fn(lane, k)
			}
			idle[lane] = t.now()
		}(lane)
	}
	for k := 0; k < n; k++ {
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	return idle
}

// traceCell runs one cell the way runCachedMachine does with a
// persistent cache: a cold cell misses the store, simulates Setup,
// checkpoints, encodes and stores it; a warm cell loads, decodes and
// validates the stored checkpoint. Both then rebuild the Go-side state
// against Discard, restore the checkpoint and run the measured phase.
// Cold cells also run the measured phase against Discard once, which
// is the Go-side share of the measured run.
func traceCell(r *recorder, parent int32, sp gridSpans, ref int64, c gridCell, cfg sim.Config, st *snapstore.Store, warm bool) (ct cellTrace) {
	cell := r.begin(sp.cell, parent, ref)
	defer func() { r.end(cell); ct.cell = r.dur(cell) }()
	key := domainvirt.SnapshotKeyFor(c.name, c.p, c.scheme, cfg)

	var data []byte
	var err error
	r.call(sp.get, cell, ref, func() { data, err = st.Get(key) })
	ct.snapstoreHit = err == nil
	var snap *sim.Snapshot
	if warm {
		if err != nil {
			ct.err = err
			return ct
		}
		r.call(sp.decode, cell, ref, func() { snap, err = sim.DecodeSnapshot(data) })
		if err == nil {
			r.call(sp.restore, cell, ref, func() { err = sim.NewMachine(cfg, c.scheme).RestoreSafe(snap) })
		}
	} else {
		if !errors.Is(err, snapstore.ErrMiss) {
			ct.err = fmt.Errorf("empty store returned %v", err)
			return ct
		}
		var m *sim.Machine
		ct.simSetup = r.call(sp.setup, cell, ref, func() { m, err = simulatedSetup(c, cfg) })
		if err == nil {
			r.call(sp.snapshot, cell, ref, func() { snap = m.Snapshot() })
			r.call(sp.encode, cell, ref, func() { data, err = sim.EncodeSnapshot(snap) })
		}
		if err == nil {
			ct.snapBytes = len(data)
			r.call(sp.put, cell, ref, func() { err = st.Put(key, data) })
		}
	}
	if err != nil {
		ct.err = err
		return ct
	}

	w, err := workload.New(c.name)
	if err != nil {
		ct.err = err
		return ct
	}
	sw := &sinkSwitch{inner: trace.Discard{}}
	env := workload.NewEnv(sw, c.p)
	ct.setupGo = r.call(sp.setupGo, cell, ref, func() { err = w.Setup(env) })
	if err != nil {
		ct.err = err
		return ct
	}
	var m *sim.Machine
	r.call(sp.restore, cell, ref, func() {
		m = sim.NewMachine(cfg, c.scheme)
		m.Restore(snap)
	})
	sw.inner = m
	ct.run = r.call(sp.run, cell, ref, func() { err = w.Run(env) })
	if err != nil {
		ct.err = err
		return ct
	}
	ct.res = m.Result()
	if ct.res.Counters.DomainFaults > 0 || ct.res.Counters.PageFaults > 0 {
		ct.err = fmt.Errorf("%d domain / %d page faults", ct.res.Counters.DomainFaults, ct.res.Counters.PageFaults)
		return ct
	}
	if !warm {
		pw, _ := workload.New(c.name)
		penv := workload.NewEnv(trace.Discard{}, c.p)
		r.call(sp.probeSetup, cell, ref, func() { err = pw.Setup(penv) })
		if err == nil {
			ct.runGo = r.call(sp.runGo, cell, ref, func() { err = pw.Run(penv) })
		}
		ct.err = err
	}
	return ct
}

// simulatedSetup is a cold cell's warmup: Setup on a fresh machine, a
// fault check and ResetStats, leaving the machine ready to checkpoint.
func simulatedSetup(c gridCell, cfg sim.Config) (*sim.Machine, error) {
	w, err := workload.New(c.name)
	if err != nil {
		return nil, err
	}
	m := sim.NewMachine(cfg, c.scheme)
	env := workload.NewEnv(m, c.p)
	if err := w.Setup(env); err != nil {
		return nil, err
	}
	if r := m.Result(); r.Counters.DomainFaults > 0 || r.Counters.PageFaults > 0 {
		return nil, fmt.Errorf("setup raised %d domain / %d page faults", r.Counters.DomainFaults, r.Counters.PageFaults)
	}
	m.ResetStats()
	return m, nil
}

// tablesFrom assembles Table V, Fig. 6 and Fig. 7 from per-cell results
// by the same arithmetic as the program's Table5 and Fig6.
func tablesFrom(opt domainvirt.ExpOptions, cells []gridCell, traces []cellTrace) (gridTables, error) {
	res := make(map[string]map[domainvirt.Scheme]stats.Result)
	for i, c := range cells {
		k := fmt.Sprintf("%s/%d", c.name, c.p.NumPMOs)
		if res[k] == nil {
			res[k] = make(map[domainvirt.Scheme]stats.Result)
		}
		res[k][c.scheme] = traces[i].res
	}
	var g gridTables
	for _, name := range domainvirt.WhisperBenchmarks {
		r := res[name+"/1"]
		base, mpk := r[domainvirt.SchemeBaseline], r[domainvirt.SchemeMPK]
		g.T5 = append(g.T5, domainvirt.Table5Row{
			Benchmark:      name,
			SwitchesPerSec: mpk.SwitchesPerSec(opt.Cfg.ClockHz),
			MPKPct:         mpk.OverheadPct(base),
			MPKVirtPct:     r[domainvirt.SchemeMPKVirt].OverheadPct(base),
			DomainVirtPct:  r[domainvirt.SchemeDomainVirt].OverheadPct(base),
		})
	}
	for _, name := range domainvirt.MicroBenchmarks {
		fr := domainvirt.Fig6Result{Benchmark: name}
		for _, pmos := range opt.PMOCounts {
			r := res[fmt.Sprintf("%s/%d", name, pmos)]
			lb := r[domainvirt.SchemeLowerbound]
			fr.X = append(fr.X, pmos)
			fr.Libmpk = append(fr.Libmpk, r[domainvirt.SchemeLibmpk].OverheadPct(lb))
			fr.MPKVirt = append(fr.MPKVirt, r[domainvirt.SchemeMPKVirt].OverheadPct(lb))
			fr.DomainVirt = append(fr.DomainVirt, r[domainvirt.SchemeDomainVirt].OverheadPct(lb))
		}
		g.F6 = append(g.F6, fr)
	}
	var err error
	g.F7, err = domainvirt.Fig7(g.F6)
	return g, err
}

// layerCounts reports the engine and modelled-structure counters summed
// over a workload's results.
func layerCounts(out *output, c stats.Counters, bd stats.Breakdown) {
	out.layer("core.key_evictions", float64(c.Evictions))
	out.layer("core.shootdowns", float64(bd.Counts[stats.CatShootdown]))
	out.layer("core.pte_writes", float64(bd.Counts[stats.CatPTEWrite]))
	out.layer("core.dtt_walks", float64(c.DTTWalks))
	out.layer("core.ptlb_misses", float64(c.PTLBMisses))
	out.layer("tlb.page_walks", float64(c.TLBMisses))
	out.layer("tlb.flushed", float64(c.TLBFlushed))
	out.layer("cache.mem_reads", float64(c.MemReads))
}

// sinkSwitch forwards to a swappable sink: a forked cell builds its
// Go-side state against Discard, then swaps the restored machine in.
type sinkSwitch struct{ inner trace.Sink }

func (s *sinkSwitch) Instr(th core.ThreadID, n uint64) { s.inner.Instr(th, n) }
func (s *sinkSwitch) Access(th core.ThreadID, va memlayout.VA, size uint32, write bool) bool {
	return s.inner.Access(th, va, size, write)
}
func (s *sinkSwitch) Fetch(th core.ThreadID, va memlayout.VA) bool { return s.inner.Fetch(th, va) }
func (s *sinkSwitch) SetPerm(th core.ThreadID, d core.DomainID, p core.Perm, site core.SiteID) {
	s.inner.SetPerm(th, d, p, site)
}
func (s *sinkSwitch) Attach(d core.DomainID, r memlayout.Region, perm core.Perm) error {
	return s.inner.Attach(d, r, perm)
}
func (s *sinkSwitch) Detach(d core.DomainID) { s.inner.Detach(d) }
func (s *sinkSwitch) Fence(th core.ThreadID) { s.inner.Fence(th) }
