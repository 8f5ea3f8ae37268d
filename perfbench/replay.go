package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"domainvirt/internal/sim"
	"domainvirt/internal/stats"
	"domainvirt/internal/trace"
	"domainvirt/internal/workload"
)

// The replay workload records one avl trace at 16 PMOs, the most plain
// MPK can attach, so no engine ever evicts a key and no workload code
// runs while timing: only trace decode and the access pipeline work.
const replayPMOs = 16

// replayParams sizes the trace so one scheme's replay takes about 10 ms:
// a 10 s run then holds about a thousand replays, enough for a steady p99.
func replayParams(cfg config) workload.Params {
	p := workload.Params{NumPMOs: replayPMOs, Ops: 250, InitialElems: 256, Seed: cfg.Seed}
	if cfg.Tiny {
		p.Ops, p.InitialElems = 50, 64
	}
	return p
}

// replayWindowPasses is how many passes make one latency window: twenty
// passes are 120 replays, about 1.3 s.
func replayWindowPasses(cfg config) int {
	if cfg.Tiny {
		return 1
	}
	return 20
}

// recordTrace runs the workload against a trace writer only.
func recordTrace(cfg config) ([]byte, error) {
	w, err := workload.New("avl")
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	env := workload.NewEnv(tw, replayParams(cfg))
	if err := w.Setup(env); err != nil {
		return nil, err
	}
	if err := w.Run(env); err != nil {
		return nil, err
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// replayPass is one pass: the trace recorded as the pass's set-up, then
// replayed under every scheme in turn.
type replayPass struct {
	record  time.Duration // recording the trace: one set-up sample
	wall    time.Duration // the six replays
	each    [6]time.Duration
	results [6]stats.Result
	events  uint64
	decode  time.Duration // traced passes only
	err     error
}

// replayOnce replays data into a fresh machine under scheme.
func replayOnce(data []byte, scheme string) (stats.Result, uint64, error) {
	m := sim.NewMachine(sim.DefaultConfig(), sim.Scheme(scheme))
	n, err := trace.Replay(bytes.NewReader(data), m)
	return m.Result(), n, err
}

// replayPasses runs passes until cfg.Seconds have gone by (at least
// three) and returns them with the trace and the time they took. Every
// pass records the trace afresh, which must give the first recording's
// bytes, so set-up is sampled across the whole run rather than at one
// instant of a host whose speed drifts from second to second. With a
// recorder, each recording is a trace.record span, each scheme's replay
// a sim.replay span, and each pass also decodes the trace alone into a
// Counter (a trace.decode span), all under one bench.lane root.
func replayPasses(cfg config, r *recorder) ([]replayPass, []byte, time.Duration, error) {
	var root int32 = -1
	var recordSpan, replaySpan, decodeSpan uint16
	if r != nil {
		root = r.begin(r.t.id("bench.lane"), -1, 0)
		recordSpan, replaySpan, decodeSpan = r.t.id("trace.record"), r.t.id("sim.replay"), r.t.id("trace.decode")
	}
	var data []byte
	var passes []replayPass
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for len(passes) < 3 || time.Now().Before(deadline) {
		var p replayPass
		var rec []byte
		var err error
		p.record = r.call(recordSpan, root, int64(len(passes)), func() { rec, err = recordTrace(cfg) })
		if err != nil {
			return nil, nil, 0, fmt.Errorf("record: %w", err)
		}
		if data == nil {
			data = rec
		} else if !bytes.Equal(rec, data) {
			p.err = errors.New("the trace recorded differently from the first recording")
		}
		t0 := time.Now()
		for i, s := range schemes {
			var err error
			p.each[i] = r.call(replaySpan, root, int64(len(passes)*len(schemes)+i), func() { p.results[i], p.events, err = replayOnce(data, s) })
			if err != nil && p.err == nil {
				p.err = fmt.Errorf("%s: %w", s, err)
			}
		}
		p.wall = time.Since(t0)
		if r != nil {
			var c trace.Counter
			p.decode = r.call(decodeSpan, root, int64(len(passes)), func() { _, err = trace.Replay(bytes.NewReader(data), &c) })
			if err != nil && p.err == nil {
				p.err = fmt.Errorf("decode: %w", err)
			}
		}
		passes = append(passes, p)
	}
	wall := time.Since(start)
	if r != nil {
		r.end(root)
	}
	return passes, data, wall, nil
}

// checkReplay applies the replay rules to every pass: no error, zero
// faults, and each scheme's Result digest equal to its golden (when the
// seed has one) and to the first pass's. It returns the failed count.
func checkReplay(cfg config, out *output, passes []replayPass) int64 {
	var failed int64
	first := make([]string, len(schemes))
	for pi, p := range passes {
		if p.err != nil {
			out.fail("replay pass %d: %v", pi, p.err)
			failed += int64(len(schemes))
			continue
		}
		for i, s := range schemes {
			res := p.results[i]
			d := digestOf(res)
			bad := false
			if c := res.Counters; c.DomainFaults > 0 || c.PageFaults > 0 {
				out.fail("replay %s raised %d domain / %d page faults", s, c.DomainFaults, c.PageFaults)
				bad = true
			}
			if want, ok := goldenReplay(cfg, s); ok && d != want {
				out.fail("replay %s digest %s for seed %d, golden %s", s, d, cfg.Seed, want)
				bad = true
			}
			if first[i] == "" {
				first[i] = d
			} else if d != first[i] {
				out.fail("replay %s pass %d digest %s differs from %s", s, pi, d, first[i])
				bad = true
			}
			if bad {
				failed++
			}
		}
	}
	for i, s := range schemes {
		out.linef("  %-10s digest %s", s, first[i])
	}
	return failed
}

// passSeconds returns each pass's replay wall and recording time.
func passSeconds(passes []replayPass) (walls, records []float64) {
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		records = append(records, p.record.Seconds())
	}
	return walls, records
}

func runReplay(cfg config, out *output) error {
	passes, data, wall, err := replayPasses(cfg, nil)
	if err != nil {
		return err
	}
	p := replayParams(cfg)
	out.linef("replay: avl trace, %d PMOs, %d initial elements, %d ops, %d events, %d bytes; %d passes of %d schemes in %.3fs",
		p.NumPMOs, p.InitialElems, p.Ops, passes[0].events, len(data), len(passes), len(schemes), wall.Seconds())
	out.count(int64(len(passes)*len(schemes)), checkReplay(cfg, out, passes))

	walls, records := passSeconds(passes)
	var replaying float64
	var each []int64
	for i, p := range passes {
		replaying += walls[i]
		for _, d := range p.each {
			each = append(each, int64(d))
		}
	}
	w := replayWindowPasses(cfg) * len(schemes)
	winP50, winP99 := windowPercentiles(each, w, 50), windowPercentiles(each, w, 99)
	p50, p99 := percentileOf(each, 50), percentileOf(each, 99)
	q := quartiles(walls)
	out.linef("  pass wall quartiles %.4fs %.4fs %.4fs; per-scheme replay over all replays: p50 %.1fus (n=%d, %d beyond), p99 %.1fus (n=%d, %d beyond)",
		q[0], q[1], q[2], float64(p50.Value)/1e3, p50.N, p50.Beyond, float64(p99.Value)/1e3, p99.N, p99.Beyond)
	out.linef("  per window of %d replays, median over %d windows: p50 %.1fus, p99 %.1fus",
		w, len(winP50), median(winP50)/1e3, median(winP99)/1e3)
	out.e2e("setup_s", median(records))
	out.e2e("wall_s", median(walls))
	out.e2e("warm_wall_s", median(secondHalf(walls)))
	out.e2e("ops_per_s", float64(passes[0].events)*float64(len(passes)*len(schemes))/replaying)
	out.e2e("p50_us", median(winP50)/1e3)
	out.e2e("p99_us", median(winP99)/1e3)
	out.e2e("peak_rss_mb", peakRSSMB())
	if !cfg.Traced {
		return nil
	}
	return traceReplay(cfg, out, passes, median(walls))
}

// traceReplay repeats the passes with spans and reports where the replay
// time goes.
func traceReplay(cfg config, out *output, untraced []replayPass, untracedWall float64) error {
	t := newTracer()
	passes, data, wall, err := replayPasses(cfg, t.recorder())
	if err != nil {
		return err
	}
	out.count(int64(len(passes)*len(schemes)), checkReplay(cfg, out, passes))
	for i, s := range schemes {
		if passes[0].err == nil && untraced[0].err == nil && passes[0].results[i] != untraced[0].results[i] {
			out.fail("traced replay of %s differs from the untraced one", s)
		}
	}

	b := t.selfTimes("bench.lane", 1, wall)
	b.report(out, "replay", maxBenchShare)
	walls, records := passSeconds(passes)
	var decode time.Duration
	var per [6]time.Duration
	for _, p := range passes {
		decode += p.decode
		for j := range schemes {
			per[j] += p.each[j]
		}
	}
	events := float64(passes[0].events) * float64(len(passes))
	for j, s := range schemes {
		out.layer("sim.replay_ns_per_event."+s, float64(per[j]-decode)/events)
	}
	out.layer("trace.decode_ns_per_event", float64(decode)/events)
	out.layer("trace.record_s", median(records))
	out.layer("trace.events", float64(passes[0].events))
	out.layer("trace.bytes", float64(len(data)))
	out.layer("bench.trace_overhead", median(walls)/untracedWall)
	var counters stats.Counters
	var bd stats.Breakdown
	for i := range schemes {
		counters.Merge(&passes[0].results[i].Counters)
		bd.Merge(&passes[0].results[i].Breakdown)
	}
	layerCounts(out, counters, bd)
	return t.dump(spanPath(cfg.Dir, "replay"))
}
