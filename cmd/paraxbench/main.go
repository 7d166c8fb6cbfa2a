// Command paraxbench reproduces the paper's tables and figures. It
// captures the benchmark suite by running the real physics engine, then
// drives the architecture models and prints the same rows/series the
// paper reports.
//
// Capture is lazy (a focused experiment only pays for the benchmarks it
// reads) and the harness is parallel: captures run concurrently, model
// evaluations fan out on a -threads-wide worker pool, and experiment
// sections merge to stdout in paper order — byte-identical to a
// -threads=1 run except for the "# timing:" lines.
//
// Observability: -trace exports the run's span timeline (engine phases,
// architecture models, harness captures/experiments) as Chrome
// trace-event JSON for Perfetto (ui.perfetto.dev); -metrics writes the
// run's counters as deterministic Prometheus exposition. -cpuprofile,
// -memprofile and -pprof expose the standard Go profilers. All of them
// are written on every exit path (obs.Flags).
//
// Usage:
//
//	paraxbench -list
//	paraxbench -exp fig10b
//	paraxbench -exp all -scale 1.0 -threads 8
//	paraxbench -exp fig2a,fig2b -scale 0.5 -bench Explosions,Mix
//	paraxbench -exp all -scale 0.25 -trace trace.json -metrics metrics.prom
//	paraxbench -exp all -cpuprofile cpu.pprof -pprof localhost:6060
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/parallax-arch/parallax/internal/exp"
	"github.com/parallax-arch/parallax/internal/obs"
)

func main() { os.Exit(run()) }

// run exits 2 on a usage error, listing the valid names, before any
// output starts.
func run() int {
	var (
		id      = flag.String("exp", "all", "experiment id, comma list, or 'all'")
		scale   = flag.Float64("scale", 1.0, "workload scale (1.0 = paper; must be > 0)")
		threads = flag.Int("threads", runtime.GOMAXPROCS(0),
			"harness worker threads (1 = fully serial; default GOMAXPROCS)")
		bench = flag.String("bench", "",
			"comma list of benchmarks to restrict the suite to (default: all)")
		list     = flag.Bool("list", false, "list experiments and exit")
		obsFlags = obs.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()

	if *list {
		for _, e := range exp.Registry {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	if !(*scale > 0) { // NaN too
		fmt.Fprintf(os.Stderr, "invalid -scale %v: must be > 0 (a zero or negative scale builds degenerate scenes)\n", *scale)
		return 2
	}
	if *threads < 1 {
		fmt.Fprintf(os.Stderr, "invalid -threads %d: must be >= 1\n", *threads)
		return 2
	}

	var err error
	exps := exp.Registry
	if *id != "all" {
		exps, err = exp.Lookup(splitList(*id)...)
	}
	s := exp.NewSuite(*scale)
	if err == nil && *bench != "" {
		s, err = exp.NewSuiteOf(*scale, splitList(*bench)...)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	s.Threads = *threads

	// The harness has no single stepping world, so no series rings or
	// anomaly detector: -serve exposes the suite's registry and tracer
	// live on /metrics and /trace, and /health always answers 200.
	return obsFlags.Run(s.Tracer(), s.Metrics(), nil, nil, func() int {
		t0 := time.Now()
		s.Run(os.Stdout, exps)
		captured, captureTime := s.CaptureStats()
		fmt.Printf("# timing: capture benchmarks=%d cpu=%s\n", captured, captureTime.Round(time.Millisecond))
		fmt.Printf("# timing: total experiments=%d threads=%d wall=%s\n",
			len(exps), *threads, time.Since(t0).Round(time.Millisecond))
		return 0
	})
}

// splitList splits a comma list, trimming the spaces around each name.
func splitList(list string) []string {
	names := strings.Split(list, ",")
	for i, n := range names {
		names[i] = strings.TrimSpace(n)
	}
	return names
}
