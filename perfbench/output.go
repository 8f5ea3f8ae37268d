package main

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
)

// metricName is the rule every metric name follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// metricDef is one metric the benchmark can report, with its unit.
type metricDef struct {
	Name string
	Unit string
}

var schemes = []string{"baseline", "lowerbound", "mpk", "libmpk", "mpkvirt", "domainvirt"}

// endToEnd lists the metrics every untraced run prints. Each workload
// maps them onto its own unit of work; see README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"warm_wall_s", "s"},
	{"ops_per_s", "ops/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics every traced run prints. A layer the
// workload bypasses reads 0.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"bench.trace_overhead", "ratio"},
		{"bench.self_sum_error", "ratio"},
		{"bench.traced_wall_s", "s"},
	}
	for _, l := range layers {
		d = append(d, metricDef{l + ".self_s", "s"})
	}
	d = append(d,
		metricDef{"grid.warmups", "count"},
		metricDef{"grid.disk_hits", "count"},
		metricDef{"grid.disk_rejects", "count"},
		metricDef{"grid.cold_warmups", "count"},
		metricDef{"grid.cold_disk_hits", "count"},
		metricDef{"grid.cold_disk_rejects", "count"},
		metricDef{"grid.cell_max_s", "s"},
		metricDef{"grid.idle_ratio", "ratio"},
		metricDef{"workload.setup_go_s", "s"},
		metricDef{"workload.run_go_s", "s"},
		metricDef{"sim.setup_s", "s"},
	)
	for _, s := range schemes {
		d = append(d, metricDef{"sim.ns_per_access." + s, "ns"})
	}
	for _, s := range schemes {
		d = append(d, metricDef{"sim.replay_ns_per_event." + s, "ns"})
	}
	d = append(d,
		metricDef{"sim.snapshot_s", "s"},
		metricDef{"sim.encode_s", "s"},
		metricDef{"sim.decode_s", "s"},
		metricDef{"sim.restore_s", "s"},
		metricDef{"snapstore.put_s", "s"},
		metricDef{"snapstore.get_s", "s"},
		metricDef{"snapstore.bytes", "bytes"},
		metricDef{"trace.record_s", "s"},
		metricDef{"trace.decode_ns_per_event", "ns"},
		metricDef{"trace.events", "count"},
		metricDef{"trace.bytes", "bytes"},
		metricDef{"core.key_evictions", "count"},
		metricDef{"core.shootdowns", "count"},
		metricDef{"core.pte_writes", "count"},
		metricDef{"core.dtt_walks", "count"},
		metricDef{"core.ptlb_misses", "count"},
		metricDef{"tlb.page_walks", "count"},
		metricDef{"tlb.flushed", "count"},
		metricDef{"cache.mem_reads", "count"},
		metricDef{"serve.read_us", "us"},
		metricDef{"serve.write_us", "us"},
		metricDef{"serve.tx_us", "us"},
	)
	for _, st := range stageNames {
		d = append(d, metricDef{"serve.stage." + st + "_us", "us"})
	}
	d = append(d,
		metricDef{"serve.server_share", "ratio"},
		metricDef{"serve.perm_switches_per_op", "ratio"},
		metricDef{"serve.retries", "count"},
		metricDef{"cluster.session_us", "us"},
		metricDef{"cluster.session_success_ratio", "ratio"},
		metricDef{"cluster.upstream_reuse_ratio", "ratio"},
		metricDef{"cluster.hop_us", "us"},
	)
	return d
}()

// stageNames mirrors the reqtrace stage taxonomy, in pipeline order.
var stageNames = []string{"read_decode", "queue", "lock", "engine", "persist", "write"}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output collects a run's human-readable lines, metrics and outcome.
type output struct {
	w         io.Writer
	traced    bool
	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func newOutput(w io.Writer, traced bool) *output {
	return &output{w: w, traced: traced, values: make(map[string]float64)}
}

func (o *output) linef(format string, args ...any) {
	fmt.Fprintf(o.w, format+"\n", args...)
}

// e2e and layer set an end-to-end or per-layer metric; each kind is
// kept only in the run that prints it.
func (o *output) e2e(name string, v float64) {
	if !o.traced {
		o.values[name] = v
	}
}

func (o *output) layer(name string, v float64) {
	if o.traced {
		o.values[name] = v
	}
}

// count books attempted and failed units of work.
func (o *output) count(attempted, failed int64) {
	o.attempted += attempted
	o.failed += failed
}

// fail records a correctness problem.
func (o *output) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	o.problems = append(o.problems, msg)
	o.linef("CHECK FAILED: %s", msg)
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// finish prints failed_ratio and the metric table, then the one-line
// JSON result. Every metric of the run's kind is printed; one the
// workload never set (a layer it bypasses) reads 0.
func (o *output) finish() error {
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]value, len(defs))}
	if res.Attempted < 1 {
		o.fail("no work attempted")
		res.Attempted = 1
		res.Failed = 1
	}
	ratio := float64(res.Failed) / float64(res.Attempted)
	o.linef("failed_ratio %.6g (%d failed of %d attempted)", ratio, res.Failed, res.Attempted)
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		res.Metrics[d.Name] = value{Value: o.values[d.Name], Unit: d.Unit}
		names = append(names, d.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		o.linef("  %-36s %.6g %s", n, m.Value, m.Unit)
	}
	res.Correct = len(o.problems) == 0 && res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(o.w, "%s\n", line)
	return err
}
