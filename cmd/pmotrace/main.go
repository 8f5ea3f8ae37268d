// Command pmotrace records workload instrumentation streams to binary
// trace files and replays them through the simulator — the Pin side of
// the paper's Pin-then-Sniper methodology. A recorded trace replays
// bit-identically under any protection scheme, making cross-scheme
// comparisons paired experiments.
//
// Usage:
//
//	pmotrace record -workload avl -pmos 256 -ops 5000 -o avl.trace
//	pmotrace stat   -i avl.trace
//	pmotrace audit  -i avl.trace
//	pmotrace replay -i avl.trace -scheme domainvirt
//	pmotrace replay -i /tmp/capture -scheme all -obs-out obs/
//
// The replay input may also be a directory of per-shard capture
// segments recorded by a live pmod daemon (`pmod -trace-out`): every
// *.pmotrc file replays independently (each segment is self-contained)
// and the per-scheme results aggregate across segments. With -scheme
// all the same captured traffic runs through every protection engine —
// a paired experiment on production traffic — and -obs-out exports a
// manifest, series files, and latency histograms per segment and scheme,
// named <segment>-<scheme>-*. A scheme that cannot replay the input
// (plain MPK past 16 domains) reports its error under its own header,
// the remaining schemes still run, and the command then exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"domainvirt"
	"domainvirt/internal/buildinfo"
	"domainvirt/internal/obs"
	"domainvirt/internal/sim"
	"domainvirt/internal/stats"
	"domainvirt/internal/trace"
	"domainvirt/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	if cmd == "version" || cmd == "-version" || cmd == "--version" {
		fmt.Println(buildinfo.Stamp("pmotrace"))
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		wl       = fs.String("workload", "avl", "workload to record ("+strings.Join(domainvirt.Workloads(), ", ")+")")
		pmos     = fs.Int("pmos", 64, "number of PMOs")
		ops      = fs.Int("ops", 5000, "measured operations")
		initial  = fs.Int("init", 1024, "initial elements")
		seed     = fs.Int64("seed", 42, "workload seed")
		out      = fs.String("o", "", "output trace file (record)")
		in       = fs.String("i", "", "input trace file or capture directory (stat, audit, replay)")
		scheme   = fs.String("scheme", "domainvirt", "protection scheme, or \"all\" for every engine (replay)")
		obsOut   = fs.String("obs-out", "", "export per-file, per-scheme manifests/series/histograms into this directory (replay)")
		obsEpoch = fs.Uint64("obs-epoch", 0, "obs sampling epoch in retired instructions (0 = totals only)")
	)
	if err := fs.Parse(os.Args[2:]); err != nil {
		fatal(err)
	}

	switch cmd {
	case "record":
		if *out == "" {
			fatal(fmt.Errorf("-o is required"))
		}
		if err := record(*wl, *out, domainvirt.Params{
			NumPMOs: *pmos, Ops: *ops, InitialElems: *initial, Seed: *seed,
		}); err != nil {
			fatal(err)
		}

	case "stat":
		files := inputs(*in)
		var c trace.Counter
		var n uint64
		for _, p := range files {
			m, err := replayInto(p, &c)
			if err != nil {
				fatal(err)
			}
			n += m
		}
		fmt.Printf("%s: %d events in %d file(s)\n", *in, n, len(files))
		fmt.Printf("  instructions: %d\n", c.Instrs)
		fmt.Printf("  loads/stores: %d / %d\n", c.Loads, c.Stores)
		fmt.Printf("  SETPERMs:     %d\n", c.SetPerms)
		fmt.Printf("  attach/detach: %d / %d\n", c.Attaches, c.Detaches)
		fmt.Printf("  fences:       %d\n", c.Fences)

	case "audit":
		// Each capture segment is self-contained (the attach table and
		// open windows are re-emitted on rotation), so segments audit
		// independently.
		bad := false
		for _, p := range inputs(*in) {
			a := trace.NewAuditor(nil)
			if _, err := replayInto(p, a); err != nil {
				fatal(err)
			}
			findings := a.Finish()
			fmt.Printf("%s: %d permission switches, peak %d write-enabled domain(s) per thread\n",
				p, a.Switches, a.MaxWritable)
			for _, f := range findings {
				fmt.Println("audit:", f)
				bad = true
			}
		}
		if bad {
			os.Exit(1)
		}
		fmt.Println("audit: least-privilege window discipline holds")

	case "replay":
		files := inputs(*in)
		schemes := []string{*scheme}
		if *scheme == "all" {
			schemes = schemes[:0]
			for _, s := range sim.AllSchemes {
				schemes = append(schemes, string(s))
			}
		}
		cfg := domainvirt.DefaultConfig()
		var baseline uint64
		failed := false
		for _, sc := range schemes {
			if len(schemes) > 1 {
				fmt.Printf("--- scheme %s ---\n", sc)
			}
			// A scheme that cannot replay the trace (mpk past its 16
			// keys) reports why and leaves the others to run.
			res, n, err := replayScheme(files, sc, cfg, *obsOut, *obsEpoch)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pmotrace: scheme %s: %v\n", sc, err)
				failed = true
				continue
			}
			fmt.Printf("replayed %d events under %s: %d cycles\n", n, sc, res.Cycles)
			fmt.Printf("  switches/sec: %.0f\n", res.SwitchesPerSec(cfg.ClockHz))
			fmt.Printf("  domain/page faults: %d / %d\n", res.Counters.DomainFaults, res.Counters.PageFaults)
			if sc == string(sim.SchemeBaseline) {
				baseline = res.Cycles
			} else if baseline > 0 {
				fmt.Printf("  overhead vs baseline: %.2f%%\n",
					100*(float64(res.Cycles)-float64(baseline))/float64(baseline))
			}
			if ov := res.Breakdown.OverheadCycles(); ov > 0 {
				fmt.Printf("  protection overhead: %d cycles\n", ov)
				for i := 1; i < stats.NumCategories; i++ {
					if v := res.Breakdown.Cycles[stats.Category(i)]; v > 0 {
						fmt.Printf("    %-20s %d\n", stats.Category(i).String()+":", v)
					}
				}
			}
		}
		if failed {
			os.Exit(1)
		}

	default:
		usage()
	}
}

// record runs the workload against a trace writer only (no simulation):
// pure instrumentation, exactly the Pin role.
func record(name, path string, p domainvirt.Params) error {
	w, err := workload.New(name)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tw, err := trace.NewWriter(f)
	if err != nil {
		return err
	}
	env := workload.NewEnv(tw, p)
	if err := w.Setup(env); err != nil {
		return err
	}
	if err := w.Run(env); err != nil {
		return err
	}
	if err := tw.Close(); err != nil {
		return err
	}
	info, _ := f.Stat()
	fmt.Printf("recorded %s (%d ops, %d PMOs) to %s", name, p.Ops, p.NumPMOs, path)
	if info != nil {
		fmt.Printf(" (%d bytes)", info.Size())
	}
	fmt.Println()
	return nil
}

// replayScheme runs every input file through a fresh machine under one
// scheme and aggregates the results, stopping at the first file that
// fails to replay. With obsOut set, every file gets its own recorder,
// and its export set (manifest, series, histograms) lands in that
// directory under the file's name.
func replayScheme(files []string, scheme string, cfg domainvirt.Config, obsOut string, epoch uint64) (stats.Result, uint64, error) {
	agg := stats.Result{Scheme: scheme}
	var events uint64
	for _, path := range files {
		m := domainvirt.NewMachine(cfg, domainvirt.Scheme(scheme))
		var rec *obs.Recorder
		if obsOut != "" {
			rec = obs.NewRecorder(obs.Options{Epoch: epoch})
			m.SetRecorder(rec)
		}
		n, err := replayInto(path, m)
		if err != nil {
			return agg, events, err
		}
		events += n
		if rec != nil {
			m.FlushObs()
			export(rec, scheme, cfg, path, obsOut, n)
		}
		res := m.Result()
		agg.Cycles += res.Cycles
		agg.WorkSum += res.WorkSum
		agg.Breakdown.Merge(&res.Breakdown)
		agg.Counters.Merge(&res.Counters)
	}
	return agg, events, nil
}

// export stamps rec's manifest for a replay of events events from the
// trace file path and writes its export set into obsOut, named
// <file>-<scheme>-* after path's base name without its extension.
func export(rec *obs.Recorder, scheme string, cfg domainvirt.Config, path, obsOut string, events uint64) {
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	rec.SetManifest(obs.Manifest{
		Scheme:      scheme,
		Workload:    "trace:" + name,
		Ops:         int(events),
		Cores:       cfg.Cores,
		Epoch:       rec.EpochLen(),
		ConfigHash:  obs.ConfigHash(cfg),
		ToolVersion: obs.ToolVersion,
	})
	paths, err := rec.ExportDir(obsOut, name+"-"+scheme)
	if err != nil {
		fatal(err)
	}
	for _, p := range paths {
		fmt.Printf("  wrote %s\n", p)
	}
}

// inputs resolves -i: a file is itself; a directory yields its sorted
// *.pmotrc / *.trace members (a pmod -trace-out capture directory).
func inputs(in string) []string {
	needIn(in)
	fi, err := os.Stat(in)
	if err != nil {
		fatal(err)
	}
	if !fi.IsDir() {
		return []string{in}
	}
	var files []string
	for _, pat := range []string{"*.pmotrc", "*.trace"} {
		m, err := filepath.Glob(filepath.Join(in, pat))
		if err != nil {
			fatal(err)
		}
		files = append(files, m...)
	}
	sort.Strings(files)
	if len(files) == 0 {
		fatal(fmt.Errorf("%s: no *.pmotrc or *.trace files", in))
	}
	return files
}

// replayInto replays the trace file at path into sink and returns the
// number of events replayed.
func replayInto(path string, sink trace.Sink) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, err := trace.Replay(f, sink)
	if err != nil {
		return n, fmt.Errorf("%s: %w", path, err)
	}
	return n, nil
}

func needIn(in string) {
	if in == "" {
		fatal(fmt.Errorf("-i is required"))
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pmotrace {record|stat|audit|replay} [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pmotrace:", err)
	os.Exit(1)
}
