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
// deterministic text snapshot of the run's counters. -cpuprofile,
// -memprofile and -pprof expose the standard Go profilers. All of them
// are written on every exit path (obs.Flags).
//
// Usage:
//
//	paraxbench -list
//	paraxbench -exp fig10b
//	paraxbench -exp all -scale 1.0 -threads 8
//	paraxbench -exp fig2a,fig2b -scale 0.5 -bench Explosions,Mix
//	paraxbench -exp all -scale 0.25 -trace trace.json -metrics metrics.txt
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
	"github.com/parallax-arch/parallax/internal/phys/broadphase"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		id      = flag.String("exp", "all", "experiment id, comma list, or 'all'")
		scale   = flag.Float64("scale", 1.0, "workload scale (1.0 = paper; must be > 0)")
		threads = flag.Int("threads", runtime.GOMAXPROCS(0),
			"harness worker threads (1 = fully serial; default GOMAXPROCS)")
		bench = flag.String("bench", "",
			"comma list of benchmarks to restrict the suite to (default: all)")
		broad = flag.String("broad", "",
			"broad-phase algorithm for every captured world: "+strings.Join(broadphase.Names, "|")+" (default: each benchmark's own)")
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

	if *scale <= 0 {
		fmt.Fprintf(os.Stderr, "invalid -scale %v: must be > 0 (a zero or negative scale builds degenerate scenes)\n", *scale)
		return 2
	}
	if *threads < 1 {
		fmt.Fprintf(os.Stderr, "invalid -threads %d: must be >= 1\n", *threads)
		return 2
	}

	s := exp.NewSuite(*scale)
	if *bench != "" {
		var names []string
		for _, n := range strings.Split(*bench, ",") {
			names = append(names, strings.TrimSpace(n))
		}
		var err error
		s, err = exp.NewSuiteOf(*scale, names...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	s.Threads = *threads
	if *broad != "" {
		// Validate the name once up front; captures then build a fresh
		// instance per world (sweep structures carry cross-step state).
		if _, err := broadphase.NewByName(*broad); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		name := *broad
		s.Broad = func() broadphase.Interface {
			bp, _ := broadphase.NewByName(name)
			return bp
		}
	}

	ids := exp.IDs()
	if *id != "all" {
		ids = nil
		for _, one := range strings.Split(*id, ",") {
			ids = append(ids, strings.TrimSpace(one))
		}
	}

	// The harness has no single stepping world, so no series rings or
	// anomaly detector: -serve exposes the suite's registry and tracer
	// live on /metrics and /trace, and /health always answers 200.
	return obsFlags.Run(s.Tracer(), s.Metrics(), nil, nil, func() int {
		t0 := time.Now()
		if err := s.RunIDs(os.Stdout, ids...); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		captured, captureTime := s.CaptureStats()
		fmt.Printf("# timing: capture benchmarks=%d cpu=%s\n", captured, captureTime.Round(time.Millisecond))
		fmt.Printf("# timing: total experiments=%d threads=%d wall=%s\n",
			len(ids), *threads, time.Since(t0).Round(time.Millisecond))
		return 0
	})
}
