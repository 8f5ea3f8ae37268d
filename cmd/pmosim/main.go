// Command pmosim runs one benchmark workload under one protection scheme
// on the simulated machine and prints cycle counts, permission-switch
// rates, and the overhead breakdown.
//
// Usage:
//
//	pmosim -workload avl -scheme domainvirt -pmos 256 -ops 10000
//	pmosim -workload echo -scheme mpk -ops 20000 -compare
//	pmosim -workload avl -scheme mpkvirt -obs-out obs/ -obs-epoch 10000
//	pmosim -conform -conform-programs 1000 -conform-out corpus/
//	pmosim -crashconform -crashconform-workloads 200 -crashconform-out crashes/
//
// -obs-out attaches the observability recorder to the run and exports
// the run manifest, the epoch-sampled counter time series (JSONL and
// CSV), and a Prometheus text snapshot into the directory. The exported
// files are byte-identical across runs with the same seed; wall-clock
// time is printed to stdout only.
//
// -conform runs the differential conformance campaign instead of a
// workload: generated trace programs are replayed through every
// protection engine and checked for verdict, fault-attribution, and
// cycle-accounting agreement. Exits nonzero on any divergence, leaving
// minimized .prog repros in -conform-out.
//
// -crashconform runs the crash-consistency conformance sweep instead of
// a workload: generated durable transactions are recorded at
// persistence-media granularity, crashed after every recorded step
// under every fault mode (strict, dropped tails, reordered flushes,
// torn stores), recovered, and checked for prefix consistency. Exits
// nonzero on any violation, leaving .crash repros in -crashconform-out.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"domainvirt"
	"domainvirt/internal/buildinfo"
	"domainvirt/internal/obs"
	"domainvirt/internal/stats"
)

func main() {
	os.Exit(run())
}

// run carries the whole command so that profile shutdown (a deferred
// stop) happens before the process exits; os.Exit in main would skip it.
func run() int {
	var (
		wl      = flag.String("workload", "avl", "workload name ("+strings.Join(domainvirt.Workloads(), ", ")+")")
		scheme  = flag.String("scheme", "domainvirt", "protection scheme (baseline, lowerbound, mpk, libmpk, mpkvirt, domainvirt)")
		pmos    = flag.Int("pmos", 64, "number of PMOs (multi-PMO workloads)")
		ops     = flag.Int("ops", 10000, "measured operations")
		initial = flag.Int("init", 1024, "initial elements")
		threads = flag.Int("threads", 1, "worker threads")
		cores   = flag.Int("cores", 1, "simulated cores")
		seed    = flag.Int64("seed", 42, "workload RNG seed")
		compare = flag.Bool("compare", false, "run every scheme and print an overhead comparison")

		workers  = flag.Int("workers", 0, "concurrent scheme cells for -compare (0 = GOMAXPROCS)")
		snapshot = flag.Bool("snapshot", true, "share warmup machine checkpoints across -compare cells")

		obsOut   = flag.String("obs-out", "", "directory for observability exports (manifest, time series, metrics)")
		obsEpoch = flag.Uint64("obs-epoch", 0, "sampling epoch in retired instructions (0 disables the time series)")

		cpuprofile   = flag.String("cpuprofile", "", "write a host CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a host heap profile to this file at exit")
		runtimetrace = flag.String("runtimetrace", "", "write a host runtime execution trace to this file")

		conform         = flag.Bool("conform", false, "run the differential conformance campaign instead of a workload")
		conformPrograms = flag.Int("conform-programs", 1000, "number of generated programs to replay (-conform)")
		conformSeed     = flag.Int64("conform-seed", 1, "campaign seed offset (-conform)")
		conformOut      = flag.String("conform-out", "", "directory for minimized .prog repros of divergences (-conform)")

		crashConform          = flag.Bool("crashconform", false, "run the crash-consistency conformance sweep instead of a workload")
		crashConformWorkloads = flag.Int("crashconform-workloads", 200, "number of generated transaction workloads to sweep (-crashconform)")
		crashConformSeed      = flag.Int64("crashconform-seed", 1, "first workload seed (-crashconform)")
		crashConformSeeds     = flag.Int("crashconform-seeds", 3, "fault-injection seeds per crash point and mode (-crashconform)")
		crashConformOut       = flag.String("crashconform-out", "", "directory for .crash repros of failing workloads (-crashconform)")

		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Stamp("pmosim"))
		return 0
	}

	stopProfiles, err := obs.StartHostProfiles(*cpuprofile, *memprofile, *runtimetrace)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "pmosim:", err)
		}
	}()

	cfg := domainvirt.DefaultConfig()
	cfg.Cores = *cores

	if *conform {
		rep, err := domainvirt.Conform(domainvirt.ConformOptions{
			Programs:  *conformPrograms,
			Seed:      *conformSeed,
			CorpusDir: *conformOut,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Print(rep.Summary())
		if rep.Diverged() {
			return 1
		}
		return 0
	}
	if *crashConform {
		rep, err := domainvirt.CrashConform(domainvirt.CrashConformOptions{
			Workloads:  *crashConformWorkloads,
			Seed:       *crashConformSeed,
			FaultSeeds: *crashConformSeeds,
			CorpusDir:  *crashConformOut,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Print(rep.Summary())
		if rep.Failed() {
			return 1
		}
		return 0
	}
	p := domainvirt.Params{
		NumPMOs:      *pmos,
		Ops:          *ops,
		InitialElems: *initial,
		Threads:      *threads,
		Seed:         *seed,
	}

	if *compare {
		if err := runCompare(*wl, p, cfg, *workers, *snapshot); err != nil {
			return fail(err)
		}
		return 0
	}

	if *obsOut != "" {
		res, rec, err := domainvirt.RunObserved(*wl, p, domainvirt.Scheme(*scheme), cfg,
			domainvirt.ObsOptions{Epoch: *obsEpoch})
		if err != nil {
			return fail(err)
		}
		printResult(*wl, res, cfg)
		paths, err := rec.ExportDir(*obsOut, *wl+"-"+*scheme)
		if err != nil {
			return fail(err)
		}
		man := rec.Manifest()
		fmt.Printf("observability: %d epoch samples in %v wall time\n", len(rec.Samples()), man.Wall.Round(1e6))
		for _, p := range paths {
			fmt.Printf("  wrote %s\n", p)
		}
		return 0
	}

	res, err := domainvirt.Run(*wl, p, domainvirt.Scheme(*scheme), cfg)
	if err != nil {
		return fail(err)
	}
	printResult(*wl, res, cfg)
	return 0
}

// runCompare evaluates every scheme on the experiment worker pool. The
// per-scheme warmups differ (each scheme shapes machine state its own
// way), so every scheme simulates its own setup; with the snapshot
// cache on (the default, as in pmobench), the first scheme to measure
// records the measured segment's trace, and a scheme that starts after
// that recording is stored replays it instead of running the workload.
func runCompare(wl string, p domainvirt.Params, cfg domainvirt.Config, workers int, snapshot bool) error {
	schemes := []domainvirt.Scheme{
		domainvirt.SchemeBaseline, domainvirt.SchemeLowerbound,
		domainvirt.SchemeLibmpk, domainvirt.SchemeMPKVirt, domainvirt.SchemeDomainVirt,
	}
	if p.NumPMOs <= 15 {
		schemes = append(schemes[:2], append([]domainvirt.Scheme{domainvirt.SchemeMPK}, schemes[2:]...)...)
	}
	opt := domainvirt.DefaultExpOptions()
	opt.Cfg = cfg
	opt.Workers = workers
	if snapshot {
		opt.Snapshots = domainvirt.NewSnapshotCache()
	}
	res, err := domainvirt.RunSchemesOpt(wl, p, opt, schemes...)
	if err != nil {
		return err
	}
	base := res[domainvirt.SchemeBaseline]
	fmt.Printf("workload %s: %d ops over %d PMOs, baseline %d cycles\n\n", wl, p.Ops, p.NumPMOs, base.Cycles)
	fmt.Printf("%-12s %14s %10s %14s\n", "scheme", "cycles", "overhead", "switches/sec")
	for _, s := range schemes {
		r := res[s]
		fmt.Printf("%-12s %14d %9.2f%% %14.0f\n", s, r.Cycles, r.OverheadPct(base), r.SwitchesPerSec(cfg.ClockHz))
	}
	return nil
}

func printResult(wl string, res domainvirt.Result, cfg domainvirt.Config) {
	c := res.Counters
	fmt.Printf("workload %s under %s\n", wl, res.Scheme)
	fmt.Printf("  cycles:            %d\n", res.Cycles)
	fmt.Printf("  instructions:      %d\n", c.Instructions)
	fmt.Printf("  loads/stores:      %d / %d\n", c.Loads, c.Stores)
	fmt.Printf("  TLB hits L1/L2:    %d / %d, misses (walks): %d\n", c.TLBL1Hits, c.TLBL2Hits, c.TLBMisses)
	fmt.Printf("  TLB flushed:       %d entries, refills charged to invalidations: %d\n", c.TLBFlushed, c.DebtRefills)
	fmt.Printf("  permission switches: %d (%.0f/sec at %.1f GHz)\n",
		c.PermSwitches, res.SwitchesPerSec(cfg.ClockHz), cfg.ClockHz/1e9)
	fmt.Printf("  evictions:         %d\n", c.Evictions)
	fmt.Printf("  NVM reads/writes:  %d / %d\n", c.NVMReads, c.NVMWrites)
	if ov := res.Breakdown.OverheadCycles(); ov > 0 {
		fmt.Printf("  protection overhead cycles: %d\n", ov)
		for i := 1; i < stats.NumCategories; i++ {
			cat := stats.Category(i)
			if v := res.Breakdown.Cycles[cat]; v > 0 {
				fmt.Printf("    %-20s %12d cycles (%d events)\n", cat.String()+":", v, res.Breakdown.Counts[cat])
			}
		}
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "pmosim:", err)
	return 1
}
