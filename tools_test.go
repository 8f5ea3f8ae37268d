package domainvirt_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Integration smoke tests for the command-line tools: build each binary
// once and drive it end to end against temporary stores and traces.

var (
	toolBin    = map[string]string{}
	toolBinDir string
)

// buildTool caches binaries for the whole test run, so they must live
// in a package-lifetime directory, not a t.TempDir() that vanishes when
// the first test using the tool finishes.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	if bin, ok := toolBin[name]; ok {
		return bin
	}
	if toolBinDir == "" {
		dir, err := os.MkdirTemp("", "domainvirt-tools-")
		if err != nil {
			t.Fatal(err)
		}
		toolBinDir = dir
	}
	bin := filepath.Join(toolBinDir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	toolBin[name] = bin
	return bin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if toolBinDir != "" {
		os.RemoveAll(toolBinDir)
	}
	os.Exit(code)
}

func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, buf.String())
	}
	return buf.String()
}

func TestPmoctlEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "pmoctl")
	store := t.TempDir()

	out := runTool(t, bin, "-store", store, "create", "-name", "sessions", "-size", "8388608", "-owner", "web")
	if !strings.Contains(out, `created pool "sessions"`) {
		t.Fatalf("create output: %s", out)
	}
	out = runTool(t, bin, "-store", store, "ls")
	if !strings.Contains(out, "sessions") {
		t.Fatalf("ls output: %s", out)
	}
	out = runTool(t, bin, "-store", store, "info", "-name", "sessions")
	if !strings.Contains(out, "log area") {
		t.Fatalf("info output: %s", out)
	}
	out = runTool(t, bin, "-store", store, "verify", "-name", "sessions")
	if !strings.Contains(out, "verify: OK") {
		t.Fatalf("verify output: %s", out)
	}
	out = runTool(t, bin, "-store", store, "dump", "-name", "sessions", "-off", "0", "-len", "16")
	if !strings.Contains(out, "00000000") {
		t.Fatalf("dump output: %s", out)
	}
	out = runTool(t, bin, "-store", store, "recover", "-name", "sessions")
	if !strings.Contains(out, "clean") {
		t.Fatalf("recover output: %s", out)
	}
	runTool(t, bin, "-store", store, "rm", "-name", "sessions")
	if files, _ := filepath.Glob(filepath.Join(store, "*.pmo")); len(files) != 0 {
		t.Fatalf("pool file survived rm: %v", files)
	}
}

func TestPmotraceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "pmotrace")
	tr := filepath.Join(t.TempDir(), "x.trace")

	out := runTool(t, bin, "record", "-workload", "ss", "-pmos", "16", "-ops", "200", "-init", "128", "-o", tr)
	if !strings.Contains(out, "recorded ss") {
		t.Fatalf("record output: %s", out)
	}
	if fi, err := os.Stat(tr); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file missing: %v", err)
	}
	out = runTool(t, bin, "stat", "-i", tr)
	if !strings.Contains(out, "SETPERMs") {
		t.Fatalf("stat output: %s", out)
	}
	out = runTool(t, bin, "audit", "-i", tr)
	if !strings.Contains(out, "discipline holds") {
		t.Fatalf("audit output: %s", out)
	}
	for _, scheme := range []string{"libmpk", "mpkvirt", "domainvirt"} {
		out = runTool(t, bin, "replay", "-i", tr, "-scheme", scheme)
		if !strings.Contains(out, "domain/page faults: 0 / 0") {
			t.Fatalf("replay under %s: %s", scheme, out)
		}
	}

	// With -scheme all, a scheme that cannot replay a trace reports its
	// error under its own header and the remaining schemes still replay:
	// mpk has 16 keys and this trace attaches 32 domains. The command
	// then exits 1.
	wide := filepath.Join(t.TempDir(), "wide.trace")
	runTool(t, bin, "record", "-workload", "avl", "-pmos", "32", "-init", "64", "-ops", "50", "-o", wide)
	var buf bytes.Buffer
	cmd := exec.Command(bin, "replay", "-i", wide, "-scheme", "all")
	cmd.Stdout, cmd.Stderr = &buf, &buf
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("replay -scheme all of a 32-domain trace: %v, want exit status 1\n%s", err, buf.String())
	}
	sections := map[string]string{}
	for _, sec := range strings.Split(buf.String(), "--- scheme ")[1:] {
		name, body, _ := strings.Cut(sec, " ---\n")
		sections[name] = body
	}
	if !strings.Contains(sections["mpk"], "all 16 protection keys allocated") {
		t.Errorf("mpk section lacks its error: %q\n%s", sections["mpk"], buf.String())
	}
	for _, scheme := range []string{"libmpk", "mpkvirt", "domainvirt"} {
		if !regexp.MustCompile(`replayed [1-9]\d* events under ` + scheme + `:`).MatchString(sections[scheme]) {
			t.Errorf("%s did not replay:\n%s", scheme, buf.String())
		}
	}

	// A directory of segments exports one set per segment, and each
	// set's totals are those of replaying its segment alone.
	segs := filepath.Join(t.TempDir(), "segs")
	if err := os.Mkdir(segs, 0o755); err != nil {
		t.Fatal(err)
	}
	cyclesRe := regexp.MustCompile(`under domainvirt: (\d+) cycles`)
	cycles := map[string]string{}
	for _, seg := range []struct{ name, seed string }{{"a", "1"}, {"b", "2"}} {
		path := filepath.Join(segs, seg.name+".trace")
		runTool(t, bin, "record", "-workload", "avl", "-pmos", "16", "-ops", "300", "-seed", seg.seed, "-o", path)
		out = runTool(t, bin, "replay", "-i", path, "-scheme", "domainvirt")
		m := cyclesRe.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("replay of %s: %s", seg.name, out)
		}
		cycles[seg.name] = m[1]
	}
	obsDir := filepath.Join(t.TempDir(), "obs")
	runTool(t, bin, "replay", "-i", segs, "-scheme", "domainvirt", "-obs-out", obsDir, "-obs-epoch", "20000")
	for name, want := range cycles {
		prom, err := os.ReadFile(filepath.Join(obsDir, name+"-domainvirt-metrics.prom"))
		if err != nil {
			t.Fatal(err)
		}
		if !regexp.MustCompile(`(?m)^pmo_cycles_total\{.*\} ` + want + `$`).Match(prom) {
			t.Errorf("segment %s: pmo_cycles_total is not its own replay's %s cycles:\n%s", name, want, prom)
		}
		series, err := os.ReadFile(filepath.Join(obsDir, name+"-domainvirt-series.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range bytes.Split(bytes.TrimSpace(series), []byte("\n")) {
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.UseNumber()
			var sample any
			if err := dec.Decode(&sample); err != nil {
				t.Fatalf("segment %s sample %d: %v", name, i, err)
			}
			eachNumber(sample, func(n json.Number) {
				if f, _ := n.Float64(); f >= 1<<63 {
					t.Errorf("segment %s sample %d holds %s, a wrapped delta", name, i, n)
				}
			})
		}
	}
}

// eachNumber calls fn on every number in a value decoded with UseNumber.
func eachNumber(v any, fn func(json.Number)) {
	switch v := v.(type) {
	case json.Number:
		fn(v)
	case map[string]any:
		for _, e := range v {
			eachNumber(e, fn)
		}
	case []any:
		for _, e := range v {
			eachNumber(e, fn)
		}
	}
}

func TestPmosimEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "pmosim")
	out := runTool(t, bin, "-workload", "rbt", "-scheme", "domainvirt", "-pmos", "32", "-ops", "300", "-init", "128")
	if !strings.Contains(out, "permission switches") {
		t.Fatalf("pmosim output: %s", out)
	}
	out = runTool(t, bin, "-workload", "rbt", "-pmos", "32", "-ops", "300", "-init", "128", "-compare")
	for _, want := range []string{"baseline", "lowerbound", "libmpk", "mpkvirt", "domainvirt"} {
		if !strings.Contains(out, want) {
			t.Fatalf("compare output missing %s: %s", want, out)
		}
	}
}

// TestBadCellInputExitsWithError: a cell input the simulator cannot
// build exits 1 with an error naming it, not 2 with a panic.
func TestBadCellInputExitsWithError(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, c := range []struct {
		tool string
		args []string
		want string
	}{
		{"pmosim", []string{"-cores", "0"}, "Cores 0"},
		{"pmod", []string{"-engine", "bogus", "-listen", "127.0.0.1:0"}, `unknown -engine "bogus"`},
	} {
		var buf bytes.Buffer
		cmd := exec.Command(buildTool(t, c.tool), c.args...)
		cmd.Stdout, cmd.Stderr = &buf, &buf
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(buf.String(), c.want) {
			t.Errorf("%s %v: %v, output %q; want exit 1 naming %q", c.tool, c.args, err, buf.String(), c.want)
		}
	}
}

func TestPmosimObsAndProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "pmosim")
	dir := t.TempDir()
	obsDir := filepath.Join(dir, "obs")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	out := runTool(t, bin, "-workload", "avl", "-scheme", "mpkvirt", "-pmos", "64",
		"-ops", "2000", "-init", "256",
		"-obs-out", obsDir, "-obs-epoch", "5000",
		"-cpuprofile", cpu, "-memprofile", mem)
	if !strings.Contains(out, "observability:") || !strings.Contains(out, "wrote ") {
		t.Fatalf("obs output missing written-path report: %s", out)
	}
	for _, name := range []string{
		"avl-mpkvirt-manifest.json", "avl-mpkvirt-series.jsonl",
		"avl-mpkvirt-series.csv", "avl-mpkvirt-metrics.prom",
	} {
		if fi, err := os.Stat(filepath.Join(obsDir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("export %s missing or empty: %v", name, err)
		}
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", filepath.Base(p), err)
		}
	}
}

func TestPmobenchProgressAndObs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "pmobench")
	dir := t.TempDir()
	csv := filepath.Join(dir, "csv")
	obsDir := filepath.Join(dir, "obs")
	out := runTool(t, bin, "-experiment", "table6", "-ops", "400",
		"-csv", csv, "-obs-out", obsDir, "-obs-epoch", "2000")
	if !strings.Contains(out, "pmobench: experiment=table6") {
		t.Fatalf("missing start banner: %s", out)
	}
	if !strings.Contains(out, "[10/10] ") {
		t.Fatalf("missing per-cell progress lines: %s", out)
	}
	if !strings.Contains(out, "wrote "+filepath.Join(csv, "table6.csv")) {
		t.Fatalf("missing written CSV path: %s", out)
	}
	manifests, _ := filepath.Glob(filepath.Join(obsDir, "table6", "manifest-*.json"))
	if len(manifests) != 10 {
		t.Errorf("table6 obs dir has %d manifests, want 10", len(manifests))
	}
	hists, _ := filepath.Glob(filepath.Join(obsDir, "table6", "hist-*.prom"))
	if len(hists) != 2 {
		t.Errorf("table6 obs dir has %d scheme histograms, want 2", len(hists))
	}
}

func TestCheckJSONL(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := filepath.Join(t.TempDir(), "checkjsonl")
	cmd := exec.Command("go", "build", "-o", bin, "./scripts/checkjsonl")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building checkjsonl: %v\n%s", err, out)
	}
	good := filepath.Join(t.TempDir(), "good.jsonl")
	if err := os.WriteFile(good, []byte("{\"a\":1}\n{\"b\":2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runTool(t, bin, "-min-lines", "2", good)
	if !strings.Contains(out, "2 valid JSONL lines") {
		t.Fatalf("checkjsonl output: %s", out)
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"a\":1}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := exec.Command(bin, bad).Run(); err == nil {
		t.Fatalf("checkjsonl accepted malformed JSONL")
	}
}

func TestPmobenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "pmobench")
	csv := t.TempDir()
	out := runTool(t, bin, "-experiment", "table8", "-csv", csv)
	if !strings.Contains(out, "Table VIII") {
		t.Fatalf("pmobench output: %s", out)
	}
	if _, err := os.Stat(filepath.Join(csv, "table8.csv")); err != nil {
		t.Fatalf("CSV not written: %v", err)
	}
}
