// Command pmoworker is the distributed-sweep cell executor: a daemon
// that serves experiment grid cells shipped by a coordinating pmobench
// (or any ExpOptions.SweepAddrs user) over the internal/sweep protocol.
//
// Usage:
//
//	pmoworker -listen 127.0.0.1:0 -addr-file /tmp/w1.addr -snapshot-dir /var/cache/pmo
//
// Each connection executes one cell at a time; a coordinator opens
// several connections per worker for intra-worker parallelism. The
// worker keeps warmup checkpoints, and the traces of the measured
// segments its cells record and later cells replay, in memory or, with
// -snapshot-dir, in a directory where they survive for later sweeps.
// Checkpoints it misses are pulled from the coordinator mid-cell.
// Killing a worker mid-sweep is safe — the coordinator re-runs its lost
// cells locally and the sweep's outputs are byte-identical either way.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"

	"domainvirt"
	"domainvirt/internal/buildinfo"
	"domainvirt/internal/sweep"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		listen   = flag.String("listen", "127.0.0.1:0", "listen address")
		addrFile = flag.String("addr-file", "", "write the bound listen address to this file (for -listen :0 scripting)")
		snapDir  = flag.String("snapshot-dir", "", "keep warmup checkpoints and measured-segment traces in this directory, for later sweeps (empty = in memory, for this process)")
		quiet    = flag.Bool("quiet", false, "suppress per-cell log lines")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Stamp("pmoworker"))
		return 0
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)

	var cache *domainvirt.SnapshotCache
	var err error
	if *snapDir != "" {
		cache, err = domainvirt.NewSnapshotCacheDir(*snapDir)
	} else {
		cache = domainvirt.NewSnapshotCache()
	}
	if err != nil {
		logger.Printf("pmoworker: %v", err)
		return 1
	}

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Printf("pmoworker: %v", err)
		return 1
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(lis.Addr().String()), 0o644); err != nil {
			logger.Printf("pmoworker: %v", err)
			return 1
		}
	}
	logger.Printf("pmoworker: listening on %s (snapshot-dir=%q)", lis.Addr(), *snapDir)

	srv := &sweep.Server{
		Run: func(spec []byte, fetch sweep.Fetch) ([]byte, error) {
			return domainvirt.RunSweepCell(spec, cache, fetch)
		},
	}
	if !*quiet {
		srv.Log = logger.Printf
	}
	if err := srv.Serve(lis); err != nil {
		logger.Printf("pmoworker: %v", err)
		return 1
	}
	return 0
}
