// Command perfbench is the repository's end-to-end benchmark. It drives
// the experiment path (Table V / Fig. 6 grid, trace replay) and the
// serve path (pmod, pmorouter) in-process through their APIs, checks
// every output, and prints the metrics named in BENCHMARK.json. With
// -trace 1 it instead re-runs the workload with a span around every
// call into a layer and prints the per-layer breakdown. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// config is one run's settings. Tests shrink the sizes; the command
// line only picks the workload, seed, duration and tracing.
type config struct {
	Seed    int64
	Seconds float64
	Traced  bool
	Workers int    // threads or connections the load uses (nproc)
	Dir     string // scratch space for stores and span dumps
	Tiny    bool   // test-sized inputs; goldens are skipped
}

var workloads = map[string]func(cfg config, out *output) error{
	"grid":    runGrid,
	"replay":  runReplay,
	"serve":   runServe,
	"cluster": runCluster,
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: grid, replay, serve or cluster")
		seed    = flag.Int64("seed", 42, "input seed")
		seconds = flag.Float64("seconds", 10, "seconds to measure; grid makes cold-then-warm rounds until they are up, at least three")
		traced  = flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the timed run")
		dir     = flag.String("out", ".bench_build", "directory for stores and span dumps")
	)
	flag.Parse()
	run, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		os.Exit(2)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := config{
		Seed:    *seed,
		Seconds: *seconds,
		Traced:  *traced == 1,
		Workers: runtime.NumCPU(),
		Dir:     *dir,
	}
	out := newOutput(os.Stdout, cfg.Traced)
	if err := run(cfg, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		os.Exit(1)
	}
	if err := out.finish(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// peakRSSMB is the process's peak resident set in MB. Each run is its
// own process running one workload, so the high-water mark belongs to
// that workload alone.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupRepeats is how many times serve and cluster set up before the
// timed phase, and again after it; setup_s is the median.
const setupRepeats = 5

// timeSetups runs setup n times, tearing down all but the last, and
// returns each set-up's seconds.
func timeSetups(n int, setup func() error, teardown func()) ([]float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			teardown()
		}
	}
	return times, nil
}
