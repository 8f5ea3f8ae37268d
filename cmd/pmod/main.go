// Command pmod is the PMO service daemon: it serves a persistent-memory
// object store to network clients over the pmod wire protocol, with a
// sharded session table, a bounded worker pool (full queue → RETRY),
// idle-session eviction, and per-client least-privilege domain windows
// when a protection engine is selected.
//
// Usage:
//
//	pmod -listen 127.0.0.1:7070 -engine domainvirt
//	pmod -listen 127.0.0.1:0 -addr-file /tmp/pmod.addr -store /var/lib/pmod
//	pmod -listen 127.0.0.1:7070 -metrics 127.0.0.1:9090
//	pmod -trace-sample 64 -trace-slow 5ms -trace-spans spans.jsonl
//	pmod -trace-out /tmp/capture -trace-rotate 67108864
//
// With -trace-sample/-trace-slow, every request is timed through the
// stage taxonomy (read/decode, queue, lock, engine, persist, write);
// retained spans drain over the TRACE wire op, the /debug/spans HTTP
// endpoint (with -debug -metrics), or the -trace-spans JSONL dump. With
// -trace-out, each shard tees its live protection-engine event stream
// into binary trace segments that `pmotrace replay` can re-run under
// any scheme.
//
// With -store, interrupted durable transactions left behind by a
// crashed predecessor are recovered (redone or discarded) before the
// listener opens, and the store is re-synced to disk every -sync.
//
// SIGINT/SIGTERM trigger a graceful drain: the listener closes, every
// queued request finishes and flushes, sessions detach, and a
// file-backed store syncs before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"domainvirt"
	"domainvirt/internal/buildinfo"
	"domainvirt/internal/pmo"
	"domainvirt/internal/reqtrace"
	"domainvirt/internal/serve"
	"domainvirt/internal/sim"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		listen   = flag.String("listen", "127.0.0.1:7070", "address to serve the wire protocol on")
		addrFile = flag.String("addr-file", "", "write the bound listen address to this file (for -listen :0 scripting)")
		shards   = flag.Int("shards", 8, "session-table shards (rounded up to a power of two)")
		workers  = flag.Int("workers", 0, "request workers (0 = 2*GOMAXPROCS)")
		queue    = flag.Int("queue", 256, "request queue depth; a full queue answers RETRY")
		engine   = flag.String("engine", "domainvirt", "protection scheme per shard (none, mpk, libmpk, mpkvirt, domainvirt)")
		storeDir = flag.String("store", "", "file-backed store directory (empty = in-memory)")
		metrics  = flag.String("metrics", "", "serve Prometheus text metrics on this HTTP address (empty = off)")
		idle     = flag.Duration("idle", 2*time.Minute, "evict sessions idle this long (0 disables)")
		syncEach = flag.Duration("sync", time.Second, "background sync interval for a file-backed store")
		poolSize = flag.Uint64("poolsize", 1<<20, "pool size when OPEN asks for 0")
		drainFor = flag.Duration("drain", 10*time.Second, "graceful-drain budget on SIGTERM")
		version  = flag.Bool("version", false, "print version and exit")

		trSample = flag.Int("trace-sample", 0, "retain every Nth request span (0 = tracing off unless -trace-slow)")
		trSlow   = flag.Duration("trace-slow", 0, "always retain spans of requests slower than this (0 = off)")
		trRing   = flag.Int("trace-ring", 1024, "retained-span ring size (rounded up to a power of two)")
		trSpans  = flag.String("trace-spans", "", "write the retained spans as JSONL to this file on drain")
		trOut    = flag.String("trace-out", "", "record live traffic to per-shard binary trace segments in this directory")
		trRotate = flag.Int64("trace-rotate", 0, "rotate capture segments at this many bytes (0 = single segment per shard)")
		debug    = flag.Bool("debug", false, "expose /debug/spans on the -metrics HTTP server")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Stamp("pmod"))
		return 0
	}
	if e := sim.Scheme(*engine); e != "" && e != "none" && !slices.Contains(sim.AllSchemes, e) {
		return fail(fmt.Errorf("unknown -engine %q: want none or one of %v", *engine, sim.AllSchemes))
	}

	var store *pmo.Store
	if *storeDir != "" {
		st, err := domainvirt.OpenStore(*storeDir)
		if err != nil {
			return fail(err)
		}
		// A previous process may have died mid-transaction: settle every
		// pool's redo log before serving any client.
		redone, err := domainvirt.RecoverStore(st)
		if err != nil {
			return fail(fmt.Errorf("recover store %s: %w", *storeDir, err))
		}
		if redone > 0 {
			fmt.Fprintf(os.Stderr, "pmod: recovered store: %d interrupted transaction(s) redone\n", redone)
		}
		store = st
	}
	opts := serve.Options{
		Store:           store,
		Shards:          *shards,
		Workers:         *workers,
		QueueDepth:      *queue,
		IdleTimeout:     *idle,
		SyncEvery:       *syncEach,
		Engine:          sim.Scheme(*engine),
		DefaultPoolSize: *poolSize,
		Trace: reqtrace.Config{
			SampleEvery: *trSample,
			Slow:        *trSlow,
			RingSize:    *trRing,
		},
	}
	if *trOut != "" {
		dir := *trOut
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fail(err)
		}
		opts.CaptureOpen = func(shard, seg int) (io.WriteCloser, error) {
			return os.Create(filepath.Join(dir, fmt.Sprintf("shard-%d-seg-%d.pmotrc", shard, seg)))
		}
		opts.CaptureMaxSegmentBytes = *trRotate
	}
	srv := serve.NewServer(opts)

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		return fail(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(lis.Addr().String()), 0o644); err != nil {
			return fail(err)
		}
	}

	if *metrics != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			srv.WriteMetrics(w)
		})
		if *debug {
			mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, _ *http.Request) {
				tr := srv.Tracer()
				if tr == nil {
					http.Error(w, "tracing disabled (run with -trace-sample or -trace-slow)", http.StatusNotFound)
					return
				}
				w.Header().Set("Content-Type", "application/x-ndjson")
				tr.WriteSpansJSONL(w)
			})
		}
		msrv := &http.Server{Addr: *metrics, Handler: mux}
		go msrv.ListenAndServe()
		defer msrv.Close()
	}

	eng := *engine
	if eng == "" {
		eng = "none"
	}
	fmt.Fprintf(os.Stderr, "%s listening on %s (engine=%s shards=%d)\n",
		buildinfo.Stamp("pmod"), lis.Addr(), eng, *shards)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()

	select {
	case err := <-done:
		if err != nil {
			return fail(err)
		}
		return finish(srv, *trSpans)
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "pmod: %v, draining (%v budget)\n", sig, *drainFor)
		ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fail(fmt.Errorf("drain: %w", err))
		}
		if err := <-done; err != nil {
			return fail(err)
		}
		fmt.Fprintln(os.Stderr, "pmod: drained cleanly")
		return finish(srv, *trSpans)
	}
}

// finish runs the post-drain observability epilogue: the retained-span
// dump and the capture accounting. Shutdown has already flushed and
// closed the capture segments.
func finish(srv *serve.Server, spansPath string) int {
	if spansPath != "" {
		if tr := srv.Tracer(); tr != nil {
			f, err := os.Create(spansPath)
			if err != nil {
				return fail(err)
			}
			if err := tr.WriteSpansJSONL(f); err != nil {
				f.Close()
				return fail(err)
			}
			if err := f.Close(); err != nil {
				return fail(err)
			}
			fin, sampled, slow := tr.Counts()
			fmt.Fprintf(os.Stderr, "pmod: wrote span dump to %s (%d finished, %d sampled, %d slow)\n",
				spansPath, fin, sampled, slow)
		} else {
			fmt.Fprintln(os.Stderr, "pmod: -trace-spans set but tracing was disabled; nothing written")
		}
	}
	if st, ok := srv.CaptureStats(); ok {
		fmt.Fprintf(os.Stderr, "pmod: capture: %d events (%d dropped), %d bytes, %d segment(s)\n",
			st.Events, st.Dropped, st.Bytes, st.Segments)
		if err := srv.CaptureErr(); err != nil {
			return fail(fmt.Errorf("capture: %w", err))
		}
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "pmod:", err)
	return 1
}
