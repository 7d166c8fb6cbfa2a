// Command paraxperf is the repository's one benchmark: five workloads that
// cover what each kind of user feels (an embedded World.Step loop, a
// paraxserve client, a researcher regenerating the paper's tables), with a
// separate traced run that times every layer underneath through its public
// entry points. See README.md in this directory and BENCHMARK.json at the
// repository root for the contract.
//
//	bash bench/run.sh --workload step-solver --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload step-solver --seed 1 --seconds 10 --trace 1
//	bash bench/run.sh -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
// Every workload runs whole units of work (episodes, sweeps) until this
// much time has passed, so a run measures at least this long.
const runSeconds = 10

// buildDir is where the run script builds and where traces are written,
// relative to the checkout root the binary runs from.
const buildDir = ".bench_build"

type workloadKind int

const (
	kindStep workloadKind = iota
	kindServe
	kindHarness
)

// workloadDef is one set of inputs. Scene is what the engine-layer probes
// of the traced run are driven with; for the step workloads it is also the
// workload itself.
type workloadDef struct {
	Name string
	Kind workloadKind
	// Why is the one-line reason recorded in BENCHMARK.json, with the
	// phase shares measured on this code when the workload was chosen.
	Why string
	// Op names the operation whose latency op_ms_* reports.
	Op    string
	Scene sceneCfg
}

// sceneCfg fixes the engine inputs: scene, scale, worker threads, how many
// steps settle the scene before the snapshot, and how many timed steps
// make one episode. Counts, not durations, so two commits do identical
// work per episode. Episodes are short (about a second) so that ten or so
// fit a run: quietProfile needs the repeats, and the scenes' step times are
// flat over the longer episodes they were first measured with.
type sceneCfg struct {
	Name    string
	Scale   float64
	Threads int // 0 = min(nproc, 4)
	Settle  int
	Episode int
}

// serveScene is what every session of the served fleet runs, and so also
// the scene the serve-fleet traced run drives the engine layers with.
var serveScene = sceneCfg{Name: "Ragdoll", Scale: 0.5, Threads: 1, Settle: 150, Episode: 400}

var workloads = []workloadDef{
	{
		Name: "step-solver", Kind: kindStep, Op: "one World.Step",
		Why:   "Ragdoll@1.0 threads=1: island processing ~85% of the step in 28 small jointed islands, broad phase ~9%; a faster solver sweep must show here, a broad-phase or cloth change must not",
		Scene: sceneCfg{Name: "Ragdoll", Scale: 1.0, Threads: 1, Settle: 150, Episode: 400},
	},
	{
		Name: "step-broad", Kind: kindStep, Op: "one World.Step",
		Why:   "Continuous@4.0 threads=1, 7202 mostly static geoms: broad phase ~60%, solver ~30%; the one scene where the SAP / IncrementalSAP / SpatialHash choice is visible end to end",
		Scene: sceneCfg{Name: "Continuous", Scale: 4.0, Threads: 1, Settle: 50, Episode: 100},
	},
	{
		Name: "step-mix", Kind: kindStep, Op: "one World.Step",
		Why:   "Mix@1.0 threads=min(nproc,4): broad ~20%, narrow ~9%, solver ~42% (one ~3000-row island), cloth ~25%, through the chunk-parallel path; catches a single-thread win that costs the parallel path",
		Scene: sceneCfg{Name: "Mix", Scale: 1.0, Threads: 0, Settle: 50, Episode: 60},
	},
	{
		Name: "serve-fleet", Kind: kindServe, Op: "one HTTP request, timed from its due time",
		Why:   "open loop 200 req/s over loopback HTTP at one 60 Hz shard ticking 8 Ragdoll@0.5 sessions (~42% busy): reads wait behind ticks, so engine wins shorten the tail; serve-side changes must not lengthen it",
		Scene: serveScene,
	},
	{
		Name: "harness-sweep", Kind: kindHarness, Op: "one sweep of every experiment over a captured suite",
		Why:   "exp.NewSuite(1.0) then every experiment once in order: the arch model does nearly all the work and the engine <5%, so this is the bypass workload for every engine optimisation",
		Scene: sceneCfg{Name: "Mix", Scale: 1.0, Threads: 1, Settle: 50, Episode: 30},
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// machineThreads is the parallel width the benchmark may use: never more
// engine threads or connections than the machine has processors, and never
// more than 4 (the paper's coarse-grain core count).
func machineThreads() int {
	n := runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p < n {
		n = p
	}
	if n > 4 {
		n = 4
	}
	return n
}

// threads resolves the scene's configured thread count on this machine.
func (s sceneCfg) threads() int {
	if s.Threads > 0 {
		return s.Threads
	}
	return machineThreads()
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload  = flag.String("workload", "", "workload to run: "+workloadNames())
		seed      = flag.Int64("seed", 1, "seed for every generated input")
		seconds   = flag.Float64("seconds", runSeconds, "how long to measure (whole units of work, so at least this long)")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced run")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice on one seed and once on another; compare spreads with bounds and exact counts with each other")
		printMan  = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the metric table and exit")
		tables    = flag.Bool("tables", false, "print README.md's metric tables as generated from the metric table and exit")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "paraxperf: unexpected arguments %v\n", flag.Args())
		return 2
	}
	if *printMan {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(buildManifest()); err != nil {
			fmt.Fprintf(os.Stderr, "paraxperf: %v\n", err)
			return 1
		}
		return 0
	}
	if *tables {
		printTables(os.Stdout)
		return 0
	}
	if *selfcheck {
		return runSelfcheck(*seed, *seconds)
	}
	wl, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "paraxperf: unknown workload %q (valid: %s)\n", *workload, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "paraxperf: -seconds must be positive and -trace 0 or 1\n")
		return 2
	}
	res, err := runWorkload(wl, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paraxperf: %s: %v\n", wl.Name, err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	fmt.Printf("workload %s seed %d seconds %g trace %d num_cpu %d gomaxprocs %d threads %d operation: %s\n",
		wl.Name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), wl.Scene.threads(), wl.Op)
	if err := res.write(os.Stdout, defs); err != nil {
		fmt.Fprintf(os.Stderr, "paraxperf: %s: %v\n", wl.Name, err)
		return 1
	}
	return 0
}

// runWorkload performs one run. An error means the benchmark itself could
// not run (a listener failed, a snapshot did not restore); wrong outputs
// of the program under test are counted in the result instead.
func runWorkload(wl workloadDef, seed int64, seconds float64, traced bool) (*result, error) {
	if traced {
		return runTraced(wl, seed, seconds)
	}
	switch wl.Kind {
	case kindStep:
		return runStep(wl, seed, seconds)
	case kindServe:
		return runServe(wl, seed, seconds)
	default:
		return runHarness(wl, seed, seconds)
	}
}
