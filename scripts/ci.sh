#!/usr/bin/env bash
# ci.sh — the full local gate: vet, build, and the race-enabled test
# suite (which includes the 1,000-program differential conformance
# campaign in internal/conformance), followed by the observability
# gates: the byte-determinism tests, a pmosim -obs-out smoke run whose
# JSONL export must parse, the request-tracing contract (disabled path
# allocation-free, tracer and capture tee perturbation-free), a traced
# pmod+pmoload smoke whose span dump, Prometheus snapshot, and traffic
# capture must validate and replay, a cluster smoke (three pmod nodes
# behind pmorouter surviving a mid-load node kill with zero errors and
# zero isolation violations), the deterministic-replay grid gates (the
# same grid sequential vs. parallel on an in-memory snapshot cache that
# replays or records every cell's trace, vs. two fresh processes sharing a
# persistent -snapshot-dir with zero warm-run warmups and every warm
# cell replayed from a stored trace, vs. a
# distributed sweep over two pmoworkers with one SIGKILLed mid-run —
# all byte-identical), and the RESULTS.md drift check.
# Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

go vet ./...
go vet ./internal/obs/
# Formatting gate: gofmt must have nothing to say about any file.
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt -l lists unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi
# Dead-export gate: every exported function, method, type and variable of
# a library package must be mentioned somewhere besides its declaration.
go run ./scripts/deadexports
go build ./...
# -timeout raised above the Go default: the full race-enabled suite is
# ~10 minutes of real simulation on a single-CPU container.
go test -race -timeout 30m ./...

# Observability determinism contract, run explicitly so a regression
# names the broken contract rather than hiding in the package list.
go test -race -run 'TestObsDeterminism|TestObsRecorderDoesNotPerturb|TestObsSamplerDisabled' .
go test -race -run 'TestHistogramMergeProperty|TestExportersDeterministic' ./internal/obs/

# Service layer: the concurrency-hardened PMO library, the daemon, and
# the cluster router, run explicitly so a race regression names the
# layer that broke.
go test -race ./internal/serve/... ./internal/pmo/... ./internal/cluster/...

# Crash-consistency gate: the persistence fault model, the transaction
# layer (including the checked-in FuzzRecover seed corpus, which runs as
# regression cases under plain `go test`), and the kill-at-every-step
# conformance suite, race-enabled; then a bounded generated sweep via
# the CLI entry point and a short live fuzz of log-recovery. Every fuzz
# smoke below caps the minimization of each new input at 50 executions
# (-fuzzminimizetime 50x), so its 5 seconds go to fuzzing; a crasher
# still fails the gate.
go test -race ./internal/persist/ ./internal/txn/ ./internal/crashconform/
go run ./cmd/pmosim -crashconform -crashconform-workloads 40
go test -fuzz FuzzRecover -fuzztime 5s -fuzzminimizetime 50x -run '^$' ./internal/txn/
# A short live fuzz of the snapshot decoder, the reader of the files a
# persistent store shares between processes.
go test -fuzz FuzzDecodeSnapshot -fuzztime 5s -fuzzminimizetime 50x -run '^$' ./internal/sim/
# And of the sweep frame decoders, the readers of every frame a
# pmoworker and its coordinator exchange over the network.
go test -fuzz FuzzFrames -fuzztime 5s -fuzzminimizetime 50x -run '^$' ./internal/sweep/
# And of serve's BATCH container parser, differentially against the
# router's own scan of the same container.
go test -fuzz FuzzBatch -fuzztime 5s -fuzzminimizetime 50x -run '^$' ./internal/serve/
# And of serve's request and response decoders, the readers of every
# frame pmod, pmorouter and their clients take from the network.
go test -fuzz FuzzFrame -fuzztime 5s -fuzzminimizetime 50x -run '^$' ./internal/serve/
go test -fuzz FuzzParseResponse -fuzztime 5s -fuzzminimizetime 50x -run '^$' ./internal/serve/
# And of the pool file reader, the reader of every pool a store opens.
go test -fuzz FuzzPoolFile -fuzztime 5s -fuzzminimizetime 50x -run '^$' ./internal/pmo/
# And of the trace decoder, the reader of the trace files pmotrace takes
# from disk: an accepted trace must survive a re-encode, and Replay's
# windowed decode must agree with a whole-slice decode.
go test -fuzz '^FuzzReplay$' -fuzztime 5s -fuzzminimizetime 50x -run '^$' ./internal/trace/
go test -fuzz '^FuzzWindowedDecode$' -fuzztime 5s -fuzzminimizetime 50x -run '^$' ./internal/trace/
# And of the page table against a map: its operations, its clones and its
# codec, with entries in an order AppendTo never writes.
go test -fuzz '^FuzzTableOps$' -fuzztime 5s -fuzzminimizetime 50x -run '^$' ./internal/pagetable/
# And of the conformance corpus reader, the reader of every repro file a
# campaign writes: an accepted program must survive a re-serialise.
go test -fuzz '^FuzzReadProgram$' -fuzztime 5s -fuzzminimizetime 50x -run '^$' ./internal/conformance/
# And of the crash corpus reader, the reader of every repro file a
# crash-conformance run writes, and of the span dump parser, the reader
# of pmod's TRACE answer: an accepted input must survive a re-serialise.
go test -fuzz '^FuzzReadRepro$' -fuzztime 5s -fuzzminimizetime 50x -run '^$' ./internal/crashconform/
go test -fuzz '^FuzzParseSpansJSONL$' -fuzztime 5s -fuzzminimizetime 50x -run '^$' ./internal/reqtrace/

# Hot-path budget smoke: run every benchmark briefly and enforce the
# allocation budgets of BENCH_sim.json (allocs/op must not grow; the
# timing gate is disabled here because a short CI run is too noisy —
# scripts/bench.sh check is the full timing gate). -cpu 1 measures under
# the condition the budgets were recorded in: with more Ps the runtime
# scheduler adds a fraction of an allocation per op to the parallel
# benchmarks, which the integer allocs/op can round up past a budget.
go test -run '^$' -bench . -benchmem -benchtime 200x -cpu 1 \
    ./internal/sim/ ./internal/tlb/ ./internal/pagetable/ ./internal/trace/ ./internal/serve/ ./internal/cluster/ \
    | go run ./cmd/benchjson -check BENCH_sim.json -ns-tolerance -1

# Smoke: an observed run must write a parseable, nonempty epoch series.
obsdir="$(mktemp -d)"
trap 'rm -rf "$obsdir"' EXIT
go run ./cmd/pmosim -workload avl -scheme mpkvirt -pmos 64 -ops 5000 \
    -obs-out "$obsdir" -obs-epoch 10000 >/dev/null
go run ./scripts/checkjsonl -min-lines 2 "$obsdir"/avl-mpkvirt-series.jsonl

# Request-tracing contract, run explicitly: the disabled path must stay
# allocation-free and neither the tracer nor the capture tee may perturb
# the simulated engine totals.
go test -race -run 'TestDisabledPathAllocFree|TestJSONLDeterministicRoundTrip' ./internal/reqtrace/
go test -race -run 'TestTracingZeroPerturbation|TestCaptureZeroPerturbation|TestCaptureRoundTripConformance|TestMetricsExpositionValidUnderLoad' ./internal/serve/

# Smoke: a live pmod daemon under 50 closed-loop clients for 2 seconds
# must serve with zero protocol errors and zero isolation violations
# (pmoload exits nonzero otherwise) while tracing every request and
# recording live traffic through the shard tee, then drain cleanly on
# SIGTERM. The drained artifacts feed the experiment pipeline: the span
# dump must be valid JSONL, the Prometheus snapshot must lint clean, and
# the capture must audit and replay under two schemes.
go build -o "$obsdir/pmod" ./cmd/pmod
go build -o "$obsdir/pmoload" ./cmd/pmoload
go build -o "$obsdir/pmotrace" ./cmd/pmotrace
"$obsdir/pmod" -listen 127.0.0.1:0 -addr-file "$obsdir/pmod.addr" \
    -engine domainvirt -store "$obsdir/pmostore" \
    -trace-sample 16 -trace-slow 10ms -trace-spans "$obsdir/spans.jsonl" \
    -trace-out "$obsdir/capture" -metrics 127.0.0.1:0 &
pmod_pid=$!
for _ in $(seq 50); do
    [ -s "$obsdir/pmod.addr" ] && break
    sleep 0.1
done
[ -s "$obsdir/pmod.addr" ] || { echo "pmod never bound" >&2; exit 1; }
"$obsdir/pmoload" -addr-file "$obsdir/pmod.addr" -clients 50 -duration 2s -trace
kill -TERM "$pmod_pid"
wait "$pmod_pid"
go run ./scripts/checkjsonl -min-lines 10 "$obsdir/spans.jsonl"
"$obsdir/pmotrace" audit -i "$obsdir/capture"
"$obsdir/pmotrace" replay -i "$obsdir/capture" -scheme domainvirt -obs-out "$obsdir/capture-obs"
"$obsdir/pmotrace" replay -i "$obsdir/capture" -scheme mpkvirt
go run ./scripts/checkprom "$obsdir/capture-obs"/*-domainvirt-metrics.prom

# Cluster smoke: three pmod nodes behind a pmorouter, cluster-shaped
# load (shared Zipf-skewed pools, session churn, batch pipelining,
# per-node attribution), SIGTERM one node mid-run. pmoload exits
# nonzero on any protocol error or isolation violation, so the gate
# asserts the outage surfaced only as typed, tolerated UNAVAILABLE
# answers; every daemon and the router must then drain cleanly.
go build -o "$obsdir/pmorouter" ./cmd/pmorouter
node_pids=()
for i in 1 2 3; do
    "$obsdir/pmod" -listen 127.0.0.1:0 -addr-file "$obsdir/node$i.addr" \
        -engine domainvirt -store "$obsdir/nodestore$i" &
    node_pids+=($!)
done
for _ in $(seq 50); do
    [ -s "$obsdir/node1.addr" ] && [ -s "$obsdir/node2.addr" ] && [ -s "$obsdir/node3.addr" ] && break
    sleep 0.1
done
nodes="$(cat "$obsdir/node1.addr"),$(cat "$obsdir/node2.addr"),$(cat "$obsdir/node3.addr")"
"$obsdir/pmorouter" -listen 127.0.0.1:0 -addr-file "$obsdir/router.addr" \
    -backends "$nodes" -health-every 100ms -fail-after 2 &
router_pid=$!
for _ in $(seq 50); do
    [ -s "$obsdir/router.addr" ] && break
    sleep 0.1
done
[ -s "$obsdir/router.addr" ] || { echo "pmorouter never bound" >&2; exit 1; }
"$obsdir/pmoload" -addr-file "$obsdir/router.addr" -clients 24 -duration 3s \
    -pools 60 -zipf 1.2 -churn 0.02 -batch 8 -poolsize $((512 * 1024)) \
    -nodes "$nodes" -tolerate-unavailable &
load_pid=$!
sleep 1
kill -TERM "${node_pids[1]}"   # one owner goes away mid-load
wait "$load_pid"               # nonzero on errors/violations fails the gate
kill -TERM "$router_pid"
wait "$router_pid"
kill -TERM "${node_pids[0]}" "${node_pids[2]}"
for pid in "${node_pids[@]}"; do
    wait "$pid"
done

# Deterministic parallel replay gate: the same Table 5 grid run twice —
# once sequentially with snapshot reuse off, once on 8 workers with
# warmup snapshot sharing — must export byte-identical CSV tables,
# per-cell manifests, epoch series, and per-scheme histograms. Any
# scheduling, merge-order, or snapshot-fidelity bug shows up as a diff.
go build -o "$obsdir/pmobench" ./cmd/pmobench
"$obsdir/pmobench" -experiment table5 -ops 2000 -quiet \
    -workers 1 -snapshot=false \
    -csv "$obsdir/gridseq" -obs-out "$obsdir/gridseq-obs" -obs-epoch 20000 >/dev/null
"$obsdir/pmobench" -experiment table5 -ops 2000 -quiet \
    -workers 8 -snapshot \
    -csv "$obsdir/gridpar" -obs-out "$obsdir/gridpar-obs" -obs-epoch 20000 \
    >/dev/null 2>"$obsdir/gridpar.err"
diff -r "$obsdir/gridseq" "$obsdir/gridpar" \
    || { echo "parallel+snapshot grid CSV diverged from sequential" >&2; exit 1; }
diff -r "$obsdir/gridseq-obs" "$obsdir/gridpar-obs" \
    || { echo "parallel+snapshot grid obs exports diverged from sequential" >&2; exit 1; }
# The in-memory cache takes the trace path too: each of the 24 cells
# builds its own warmup, then replays its group's trace or records it.
traced=$(sed -n 's/.*snapshot cache: warmups=24 mem_hits=0 disk_hits=0 disk_rejects=0 traces_replayed=\([0-9]*\) traces_recorded=\([0-9]*\)$/\1+\2/p' "$obsdir/gridpar.err")
[ -n "$traced" ] && [ $((traced)) -eq 24 ] \
    || { echo "in-memory snapshot cache did not build 24 warmups and trace every cell:" >&2; \
         cat "$obsdir/gridpar.err" >&2; exit 1; }

# Persistent snapshot store gate: the same grid run by two FRESH
# processes sharing one -snapshot-dir. The first populates the store
# with one checkpoint per cell (24) and one measured-segment trace per
# Table V workload (6); the second must report zero warmup
# re-simulations and a replayed trace for every cell on its cache-stats
# stderr line, and still match the sequential run byte-for-byte.
"$obsdir/pmobench" -experiment table5 -ops 2000 -quiet \
    -snapshot-dir "$obsdir/snapstore" \
    -csv "$obsdir/gridcold" -obs-out "$obsdir/gridcold-obs" -obs-epoch 20000 >/dev/null
snaps=$(find "$obsdir/snapstore" -name '*.pmosnap' | wc -l)
traces=$(find "$obsdir/snapstore" -name '*.pmotrace' | wc -l)
[ "$snaps" -eq 24 ] && [ "$traces" -eq 6 ] \
    || { echo "cold grid stored $snaps snapshots and $traces traces, want 24 and 6" >&2; exit 1; }
"$obsdir/pmobench" -experiment table5 -ops 2000 -quiet \
    -snapshot-dir "$obsdir/snapstore" \
    -csv "$obsdir/gridwarm" -obs-out "$obsdir/gridwarm-obs" -obs-epoch 20000 \
    >/dev/null 2>"$obsdir/gridwarm.err"
grep -q 'snapshot cache: warmups=0 ' "$obsdir/gridwarm.err" \
    || { echo "primed snapshot store still re-simulated warmups:" >&2; \
         cat "$obsdir/gridwarm.err" >&2; exit 1; }
grep -q 'traces_replayed=24 traces_recorded=0$' "$obsdir/gridwarm.err" \
    || { echo "primed snapshot store did not replay every cell's trace:" >&2; \
         cat "$obsdir/gridwarm.err" >&2; exit 1; }
diff -r "$obsdir/gridseq" "$obsdir/gridcold" && diff -r "$obsdir/gridseq" "$obsdir/gridwarm" \
    || { echo "persistent-store grid CSV diverged from sequential" >&2; exit 1; }
diff -r "$obsdir/gridseq-obs" "$obsdir/gridcold-obs" && diff -r "$obsdir/gridseq-obs" "$obsdir/gridwarm-obs" \
    || { echo "persistent-store grid obs exports diverged from sequential" >&2; exit 1; }

# Distributed sweep smoke: the grid fanned out to two pmoworker
# daemons, one of which is SIGKILLed mid-sweep. The coordinator must
# degrade the lost worker's cells to local re-execution and still
# export byte-identical tables and obs artifacts.
go build -o "$obsdir/pmoworker" ./cmd/pmoworker
"$obsdir/pmoworker" -listen 127.0.0.1:0 -addr-file "$obsdir/w1.addr" 2>"$obsdir/w1.log" &
w1_pid=$!
"$obsdir/pmoworker" -listen 127.0.0.1:0 -addr-file "$obsdir/w2.addr" -quiet 2>/dev/null &
w2_pid=$!
for _ in $(seq 50); do
    [ -s "$obsdir/w1.addr" ] && [ -s "$obsdir/w2.addr" ] && break
    sleep 0.1
done
[ -s "$obsdir/w1.addr" ] && [ -s "$obsdir/w2.addr" ] \
    || { echo "pmoworker never bound" >&2; exit 1; }
# Worker 1 is SIGKILLed right after it finishes its first cell, so the
# death lands while the sweep is in flight.
( for _ in $(seq 200); do
      grep -q 'cell .* done' "$obsdir/w1.log" 2>/dev/null && break
      sleep 0.05
  done
  kill -9 "$w1_pid" 2>/dev/null ) &
killer_pid=$!
"$obsdir/pmobench" -experiment table5 -ops 2000 -quiet \
    -sweep-addrs "$(cat "$obsdir/w1.addr"),$(cat "$obsdir/w2.addr")" -sweep-conns 2 \
    -csv "$obsdir/griddist" -obs-out "$obsdir/griddist-obs" -obs-epoch 20000 >/dev/null
wait "$killer_pid" || true
kill -9 "$w1_pid" 2>/dev/null || true
kill -9 "$w2_pid" 2>/dev/null || true
wait "$w1_pid" 2>/dev/null || true
wait "$w2_pid" 2>/dev/null || true
diff -r "$obsdir/gridseq" "$obsdir/griddist" \
    || { echo "distributed grid CSV diverged from sequential" >&2; exit 1; }
diff -r "$obsdir/gridseq-obs" "$obsdir/griddist-obs" \
    || { echo "distributed grid obs exports diverged from sequential" >&2; exit 1; }

# The STATS snapshot of a traced daemon must be valid exposition format
# (validated above under load by TestMetricsExpositionValidUnderLoad;
# here the standalone linter gates the pmosim export too).
go run ./scripts/checkprom "$obsdir"/avl-mpkvirt-metrics.prom

# RESULTS.md is generated from the benchmark baseline; CI fails if it
# drifted from BENCH_sim.json.
go run ./cmd/benchjson -render BENCH_sim.json -md "$obsdir/RESULTS.md" >/dev/null
diff -u RESULTS.md "$obsdir/RESULTS.md" \
    || { echo "RESULTS.md is stale: run scripts/bench.sh render" >&2; exit 1; }
echo "ci.sh: all gates passed"
