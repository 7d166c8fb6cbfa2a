// Command paraxserve runs the sharded multi-world simulation server: a
// fixed pool of shard workers stepping independent World sessions at a
// fixed tick rate, with deadline-aware scheduling, admission control
// and graceful drain to a spill directory on SIGTERM (restorable on the
// next start). See DESIGN.md "Serving architecture".
//
//	paraxserve -addr 127.0.0.1:9800 -shards 4 -hz 60 -spill spill/
//
// Session API (JSON unless noted):
//
//	POST   /sessions                {"scene":"Ragdoll","scale":1.0}, or a
//	                                raw PAXW snapshot with Content-Type
//	                                application/octet-stream → 201 with
//	                                the info route's reply, or 429 when
//	                                saturated; a body over 32 MiB → 413,
//	                                scale > 4 → 400
//	GET    /sessions                list resident sessions
//	GET    /sessions/{id}           session info
//	DELETE /sessions/{id}           detach and release
//	GET    /sessions/{id}/snapshot  PAXW bytes (octet-stream)
//	POST   /sessions/{id}/step      {"ticks":N} — manual stepping (-hz 0)
//	POST   /sessions/{id}/query     {"min":[x,y,z],"max":[x,y,z]} body query
//	                                (step, query and migrate bodies over
//	                                4 KiB → 413)
//	POST   /sessions/{id}/migrate   {"shard":K} rebalance: the session
//	                                moves as is (world, steps, degraded
//	                                state); same reply as the info route
//	GET    /health                  200 "ok", 503 "draining"
//	GET    /metrics                 Prometheus text exposition (serve/*
//	                                counters, queue-wait and op-time
//	                                histograms)
//	GET    /trace                   Chrome trace-event JSON (per-shard
//	                                lanes: shard-tick and shard-op spans)
//
// Exit codes: 0 clean shutdown (including SIGTERM drain), 1 runtime or
// I/O error, 2 usage.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/serve"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr        = flag.String("addr", "127.0.0.1:9800", "listen address")
		shards      = flag.Int("shards", 4, "shard worker count")
		threads     = flag.Int("threads", 1, "engine worker threads per resident world")
		hz          = flag.Float64("hz", 60, "tick rate per shard; 0 = manual stepping via /step only")
		budget      = flag.Duration("budget", 0, "per-session step budget per tick (0 disables deadline scheduling)")
		maxSessions = flag.Int("max-sessions", 1024, "fleet-wide resident session cap")
		queue       = flag.Int("queue", 64, "per-shard control queue depth (admission backpressure bound)")
		spill       = flag.String("spill", "", "drain spill directory; an existing manifest there is restored at startup")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "paraxserve: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		return 2
	}

	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	srv, err := serve.New(serve.Config{
		Shards:      *shards,
		Threads:     *threads,
		Hz:          *hz,
		Budget:      *budget,
		MaxSessions: *maxSessions,
		Queue:       *queue,
		SpillDir:    *spill,
	}, tr, reg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paraxserve: %v\n", err)
		return 1
	}
	if n := srv.Sessions(); n > 0 {
		fmt.Fprintf(os.Stderr, "paraxserve: restored %d sessions from %s\n", n, *spill)
	}
	srv.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paraxserve: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "paraxserve: listening on %s (shards=%d threads=%d hz=%g budget=%s max-sessions=%d)\n",
		ln.Addr(), *shards, *threads, *hz, *budget, *maxSessions)

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)

	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "paraxserve: %v\n", err)
		return 1
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "paraxserve: %v: draining\n", got)
	}

	// Stop accepting and finish in-flight requests first — shard
	// goroutines must stay alive while handlers hold ops in flight —
	// then detach, spill and stop the fleet.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "paraxserve: http shutdown: %v\n", err)
	}
	if err := srv.Drain(); err != nil {
		fmt.Fprintf(os.Stderr, "paraxserve: drain: %v\n", err)
		return 1
	}
	if *spill != "" {
		fmt.Fprintf(os.Stderr, "paraxserve: drained to %s\n", *spill)
	}
	return 0
}
