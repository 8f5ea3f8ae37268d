package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	var s []int64
	for i := int64(100); i >= 1; i-- {
		s = append(s, i)
	}
	for _, c := range []struct {
		p            float64
		value        int64
		beyond, size int
	}{{50, 50, 50, 100}, {99, 99, 1, 100}, {100, 100, 0, 100}, {1, 1, 99, 100}} {
		got := percentileOf(s, c.p)
		if got.Value != c.value || got.Beyond != c.beyond || got.N != c.size {
			t.Errorf("p%v = %+v, want value %d with %d beyond of %d", c.p, got, c.value, c.beyond, c.size)
		}
	}
	// A failed op sorts above every latency, so it is beyond every
	// percentile a measured sample sets.
	s = append([]int64{failedSample, failedSample}, s[:98]...) // 1..98 and two failures
	if got := percentileOf(s, 50); got.Value != 50 || got.Beyond != 50 {
		t.Errorf("with failures p50 = %+v, want 50 with 50 beyond", got)
	}
	if got := percentileOf(s, 99); got.Value != failedSample {
		t.Errorf("with 2%% failed, p99 = %+v, want the failed marker", got)
	}
	if got := percentileOf(nil, 50); got != (percentile{}) {
		t.Errorf("empty set gave %+v", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values are what statistics.quantiles(data, n=4) returns.
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{0.31, 0.29, 0.3, 0.33, 0.28, 0.3, 0.35, 0.3}, [3]float64{0.2925, 0.3, 0.325}},
	} {
		got := quartiles(c.data)
		for i := range got {
			if d := got[i] - c.want[i]; d > 1e-12 || d < -1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
				break
			}
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != (8.25-2.75)/5.5 {
		t.Errorf("spread = %v", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// Windows are whole and in order; a partial tail is dropped.
	got := windowPercentiles([]int64{5, 1, 3, 2, 9, 4, 7}, 3, 50)
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("windowPercentiles = %v, want [3 4]", got)
	}
}

// TestBreakdownChecksFail feeds the breakdown checks span trees they must
// reject: time no layer span covers, and overlapping sibling spans.
func TestBreakdownChecksFail(t *testing.T) {
	for _, c := range []struct {
		name     string
		children [][2]int64 // sim.run spans under a 1000 ns lane
		problems int
	}{
		{"covered", [][2]int64{{0, 600}, {600, 995}}, 0},
		{"unspanned call", [][2]int64{{0, 600}, {700, 1000}}, 1},
		{"overlapping siblings", [][2]int64{{0, 600}, {400, 1000}}, 1},
	} {
		tr := newTracer()
		r := tr.recorder()
		root := r.add(tr.id("bench.lane"), -1, 0, 0, 1000)
		for _, ch := range c.children {
			r.add(tr.id("sim.run"), root, 0, ch[0], ch[1])
		}
		out := newOutput(io.Discard, true)
		tr.selfTimes("bench.lane", 1, 1000).report(out, "test", maxBenchShare)
		if len(out.problems) != c.problems {
			t.Errorf("%s: problems %q, want %d", c.name, out.problems, c.problems)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests check against.
type benchmarkJSON struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "p50 us", "a/b", "x,y", "é"} {
		if metricName.MatchString(bad) {
			t.Errorf("%q passes the name rule", bad)
		}
	}
	b := readBenchmarkJSON(t)
	seen := make(map[string]bool)
	for _, group := range [][]metricDef{endToEnd, perLayer, b.EndToEnd, b.PerLayer} {
		for _, d := range group {
			if !metricName.MatchString(d.Name) || len(d.Name) > 64 {
				t.Errorf("metric name %q breaks the rule", d.Name)
			}
			if d.Unit == "" {
				t.Errorf("metric %q has no unit", d.Name)
			}
		}
	}
	// The program and BENCHMARK.json list the same metrics, once each.
	for _, pair := range [][2][]metricDef{{endToEnd, b.EndToEnd}, {perLayer, b.PerLayer}} {
		got := make(map[metricDef]bool)
		for _, d := range pair[0] {
			if seen[d.Name] {
				t.Errorf("metric %q listed twice", d.Name)
			}
			seen[d.Name] = true
			got[d] = true
		}
		for _, d := range pair[1] {
			if !got[d] {
				t.Errorf("BENCHMARK.json metric %+v is not one the program prints", d)
			}
		}
		if len(pair[0]) != len(pair[1]) {
			t.Errorf("program prints %d metrics, BENCHMARK.json lists %d", len(pair[0]), len(pair[1]))
		}
	}
}

func tiny(t *testing.T, seed int64) config {
	return config{Seed: seed, Seconds: 0.3, Workers: 2, Dir: t.TempDir(), Tiny: true}
}

func TestDigestsAreStablePerSeed(t *testing.T) {
	replayDigest := func(seed int64) string {
		data, err := recordTrace(tiny(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := replayOnce(data, "domainvirt")
		if err != nil {
			t.Fatal(err)
		}
		return digestOf(res)
	}
	if a, b := replayDigest(42), replayDigest(42); a != b {
		t.Errorf("replay digest differs between two runs of one seed: %s vs %s", a, b)
	}
	if a, b := replayDigest(42), replayDigest(43); a == b {
		t.Errorf("replay digest %s is the same for seeds 42 and 43", a)
	}

	gridDigest := func(seed int64) string {
		cfg := tiny(t, seed)
		pp, err := runProgramPass(gridOptions(cfg), cfg.Dir)
		if err != nil {
			t.Fatal(err)
		}
		return pp.tables.digest()
	}
	if a, b := gridDigest(42), gridDigest(42); a != b {
		t.Errorf("grid digest differs between two runs of one seed: %s vs %s", a, b)
	}
	if a, b := gridDigest(42), gridDigest(43); a == b {
		t.Errorf("grid digest %s is the same for seeds 42 and 43", a)
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that the last output line is a correct result carrying every
// metric BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, name := range []string{"grid", "replay", "serve", "cluster"} {
		for _, traced := range []bool{false, true} {
			cfg := tiny(t, 42)
			cfg.Traced = traced
			var buf bytes.Buffer
			out := newOutput(&buf, traced)
			if err := workloads[name](cfg, out); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if err := out.finish(); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res struct {
				Correct   bool             `json:"correct"`
				Attempted int64            `json:"attempted"`
				Failed    int64            `json:"failed"`
				Metrics   map[string]value `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not a result: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", name, traced, res.Correct, res.Failed, res.Attempted, buf.String())
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, d.Name)
				case m.Unit == "" || m.Unit != d.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", name, traced, d.Name, m.Unit, d.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", name, d.Name, m.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json lists %d", name, traced, len(res.Metrics), len(want))
			}
		}
	}
}
