// Command pmobench regenerates the paper's evaluation: Tables V–VIII and
// Figures 6–7, printed as aligned tables and log2-scale ASCII charts, with
// optional CSV output for external plotting.
//
// Usage:
//
//	pmobench -experiment all
//	pmobench -experiment fig6 -csv out/
//	pmobench -experiment table7 -paper        # full paper scale (slow)
//	pmobench -experiment table5 -obs-out obs/ -obs-epoch 50000
//	pmobench -experiment table6 -snapshot-dir /var/cache/pmo
//	pmobench -experiment fig6 -sweep-addrs 10.0.0.2:7070,10.0.0.3:7070
//
// Progress lines ("[done/total] cell") go to stderr while results go to
// stdout, so redirecting stdout still shows the grid advancing. -obs-out
// exports per-cell run manifests, per-cell epoch series (with
// -obs-epoch), and per-scheme merged latency histograms into one
// subdirectory per experiment.
//
// -snapshot-dir keeps warmup machine checkpoints, and the traces of the
// measured segments run on them, in a persistent content-addressed
// store, so a second invocation against the same directory
// re-simulates zero warmups and replays every cell's measured segment
// instead of running workload code; a final stderr line reports the
// cache's warmup/hit and trace counters. -sweep-addrs fans grid cells out to
// pmoworker daemons; outputs are byte-identical to a local run, and
// cells lost to a dead worker re-run locally.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"domainvirt"
	"domainvirt/internal/buildinfo"
	"domainvirt/internal/obs"
	"domainvirt/internal/report"
)

func main() {
	os.Exit(run())
}

// run carries the whole command so that profile shutdown (a deferred
// stop) happens before the process exits; os.Exit in main would skip it.
func run() int {
	var (
		exp      = flag.String("experiment", "all", "table5|table6|table7|table8|fig6|fig7|ablations|horizons|all")
		paper    = flag.Bool("paper", false, "run at the paper's full scale (100k/1M ops, stride-16 sweep)")
		ops      = flag.Int("ops", 0, "override measured operations per run")
		seed     = flag.Int64("seed", 42, "workload RNG seed")
		workers  = flag.Int("workers", 0, "concurrent experiment cells (0 = GOMAXPROCS)")
		snapshot = flag.Bool("snapshot", true, "share warmup machine checkpoints and measured-segment traces across cells and experiments")
		snapDir  = flag.String("snapshot-dir", "", "keep warmup/mid-run checkpoints and measured-segment traces in this directory instead of in memory, for later runs (implies -snapshot)")
		quiet    = flag.Bool("quiet", false, "suppress the banner and per-cell progress lines on stderr")
		csvDir   = flag.String("csv", "", "also write CSV files into this directory")

		sweepAddrs = flag.String("sweep-addrs", "", "comma-separated pmoworker addresses for distributed grids")
		sweepConns = flag.Int("sweep-conns", 0, "protocol connections (concurrent cells) per worker address (0 = 1)")

		obsOut   = flag.String("obs-out", "", "directory for per-experiment observability exports")
		obsEpoch = flag.Uint64("obs-epoch", 0, "sampling epoch in retired instructions (0 disables per-cell time series)")

		cpuprofile   = flag.String("cpuprofile", "", "write a host CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a host heap profile to this file at exit")
		runtimetrace = flag.String("runtimetrace", "", "write a host runtime execution trace to this file")

		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Stamp("pmobench"))
		return 0
	}

	stopProfiles, err := obs.StartHostProfiles(*cpuprofile, *memprofile, *runtimetrace)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "pmobench:", err)
		}
	}()

	opt := domainvirt.DefaultExpOptions()
	if *paper {
		opt = opt.Paper()
	}
	if *ops > 0 {
		opt.WhisperOps = *ops
		opt.MicroOps = *ops
	}
	opt.Seed = *seed
	opt.Workers = *workers
	if *snapDir != "" {
		// Persistent store: warmups (and horizon checkpoints) survive this
		// process, so a later pmobench against the same directory starts
		// from zero warmup re-simulations.
		opt.Snapshots, err = domainvirt.NewSnapshotCacheDir(*snapDir)
		if err != nil {
			return fail(err)
		}
	} else if *snapshot {
		// One cache across every experiment in this invocation: Table VI,
		// Table VII, and the 1024-PMO Fig. 6 column share warmups, a
		// cost ablation re-simulates no warmup at all, and cells replay
		// the traces earlier cells recorded. Results are bit-identical
		// with or without it. Progress lines tag each cell "(snapshot)"
		// or "(warmup)" to show which path served it.
		opt.Snapshots = domainvirt.NewSnapshotCache()
	}
	if *sweepAddrs != "" {
		for _, a := range strings.Split(*sweepAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				opt.SweepAddrs = append(opt.SweepAddrs, a)
			}
		}
		opt.SweepConns = *sweepConns
	}
	if !*quiet {
		opt.Progress = os.Stderr
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fail(err)
		}
	}

	workersResolved := opt.Workers
	if workersResolved <= 0 {
		workersResolved = runtime.GOMAXPROCS(0)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "pmobench: experiment=%s whisper_ops=%d micro_ops=%d seed=%d workers=%d snapshot=%v pmo_counts=%v\n",
			*exp, opt.WhisperOps, opt.MicroOps, opt.Seed, workersResolved, *snapshot, opt.PMOCounts)
	}

	failed := false
	run := func(name string, fn func() error) {
		if failed || (*exp != "all" && *exp != name) {
			return
		}
		if *obsOut != "" {
			opt.Obs = domainvirt.ExpObs{
				Dir:   filepath.Join(*obsOut, name),
				Epoch: *obsEpoch,
			}
		}
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintln(os.Stderr, "pmobench:", fmt.Errorf("%s: %w", name, err))
			failed = true
			return
		}
		fmt.Printf("[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	var fig6Cache []domainvirt.Fig6Result
	fig6 := func() ([]domainvirt.Fig6Result, error) {
		if fig6Cache != nil {
			return fig6Cache, nil
		}
		var err error
		fig6Cache, err = domainvirt.Fig6(opt)
		return fig6Cache, err
	}

	run("table5", func() error {
		rows, err := domainvirt.Table5(opt)
		if err != nil {
			return err
		}
		return emit(domainvirt.Table5Report(rows), *csvDir, "table5")
	})

	run("table6", func() error {
		rows, err := domainvirt.Table6(opt)
		if err != nil {
			return err
		}
		return emit(domainvirt.Table6Report(rows), *csvDir, "table6")
	})

	run("fig6", func() error {
		frs, err := fig6()
		if err != nil {
			return err
		}
		for _, fr := range frs {
			s := domainvirt.Fig6Series(fr)
			if err := s.RenderChart(os.Stdout, 12); err != nil {
				return err
			}
			if err := emit(s.Table(), *csvDir, "fig6-"+fr.Benchmark); err != nil {
				return err
			}
		}
		return nil
	})

	run("fig7", func() error {
		frs, err := fig6()
		if err != nil {
			return err
		}
		f7, err := domainvirt.Fig7(frs)
		if err != nil {
			return err
		}
		s := domainvirt.Fig7Series(f7)
		if err := s.RenderChart(os.Stdout, 12); err != nil {
			return err
		}
		if err := emit(s.Table(), *csvDir, "fig7"); err != nil {
			return err
		}
		for _, x := range f7.X {
			if sp, ok := f7.SpeedupAt[x]; ok && (x == 64 || x == 1024) {
				fmt.Printf("at %4d PMOs: HW MPK virtualization %.1fx faster than libmpk, domain virtualization %.1fx faster\n",
					x, sp[0], sp[1])
			}
		}
		fmt.Println()
		return nil
	})

	run("table7", func() error {
		mv, dv, err := domainvirt.Table7(opt)
		if err != nil {
			return err
		}
		return emit(domainvirt.Table7Report(mv, dv), *csvDir, "table7")
	})

	run("table8", func() error {
		return emit(domainvirt.Table8Report(opt.Cfg), *csvDir, "table8")
	})

	run("horizons", func() error {
		// Overheads at every ops horizon, forked from one mid-run pass per
		// scheme: the ladder shows how quickly the overhead estimate
		// converges as the measured window grows.
		p := domainvirt.Params{NumPMOs: 1024, Ops: opt.MicroOps, InitialElems: opt.MicroInit, Seed: opt.Seed}
		rows, err := domainvirt.HorizonSweep(opt, "avl", p, domainvirt.HorizonHorizonsFor(opt.MicroOps))
		if err != nil {
			return err
		}
		return emit(domainvirt.HorizonReport("avl", rows), *csvDir, "horizons-avl")
	})

	run("ablations", func() error {
		placement, err := domainvirt.AblationPlacement(opt)
		if err != nil {
			return err
		}
		if err := emit(domainvirt.AblationReport(
			"Ablation: node placement (AVL, % overhead over lowerbound)", placement),
			*csvDir, "ablation-placement"); err != nil {
			return err
		}
		sizes, err := domainvirt.AblationBufferSizes(opt)
		if err != nil {
			return err
		}
		if err := emit(domainvirt.AblationReport(
			"Ablation: DTTLB/PTLB entries (AVL, 1024 PMOs)", sizes),
			*csvDir, "ablation-buffers"); err != nil {
			return err
		}
		cores, err := domainvirt.AblationCores(opt)
		if err != nil {
			return err
		}
		if err := emit(domainvirt.AblationReport(
			"Ablation: cores participating in shootdowns (AVL, 256 PMOs)", cores),
			*csvDir, "ablation-cores"); err != nil {
			return err
		}
		costs, err := domainvirt.AblationCosts(opt)
		if err != nil {
			return err
		}
		return emit(domainvirt.AblationReport(
			"Ablation: cost-parameter sensitivity (AVL, 1024 PMOs)", costs),
			*csvDir, "ablation-costs")
	})

	if opt.Snapshots != nil {
		// Machine-readable summary for scripted runs: a primed persistent
		// store shows warmups=0 on a second invocation, and replays every
		// cell's measured segment from its stored trace.
		st := opt.Snapshots.Stats()
		replayed, recorded := opt.Snapshots.TraceStats()
		fmt.Fprintf(os.Stderr, "pmobench: snapshot cache: warmups=%d mem_hits=%d disk_hits=%d disk_rejects=%d traces_replayed=%d traces_recorded=%d\n",
			st.Warmups, st.MemHits, st.DiskHits, st.DiskRejects, replayed, recorded)
	}
	if failed {
		return 1
	}
	return 0
}

func emit(t *report.Table, csvDir, name string) error {
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if csvDir == "" {
		return nil
	}
	path := filepath.Join(csvDir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.CSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "pmobench:", err)
	return 1
}
