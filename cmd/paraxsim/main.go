// Command paraxsim runs one benchmark of the physics suite and reports
// per-phase workload statistics: pairs, contacts, islands, fine-grain
// task counts, and the modeled per-frame instruction totals.
//
// Observability: -trace exports the run's engine phase/worker spans as
// Chrome trace-event JSON for Perfetto (ui.perfetto.dev); -metrics
// writes the text snapshot of the run's counters. -cpuprofile,
// -memprofile and -pprof expose the standard Go profilers. All of these
// work in every mode and are written on every exit path (obs.Flags).
//
// Live telemetry: every run records a per-step series (kinetic energy,
// solver residual/impulse norms, max penetration, island stats,
// broad-phase churn, per-phase durations) into preallocated rings and
// feeds the anomaly detector (NaN state, energy spike, residual
// blowup). -serve addr exposes /metrics (Prometheus
// text exposition, byte-identical across thread counts), /health
// (200/503), /trace and /series.json while the run executes — and
// keeps serving after it completes until the process is killed. When
// the detector trips, the run stops, a black-box flight bundle
// (snapshot + trace + metrics + series + a replayable recording) is
// written under -flightdir, and the process exits with status 3.
// -nan N corrupts one body velocity before frame N to exercise that
// path end to end.
//
// Determinism: -save records the run's end state plus the profile
// digests of the following -frames worth of steps to a replay file;
// -load starts the run from a saved world state instead of building the
// benchmark; -replay re-steps a recording and exits non-zero on the
// first divergent step (-inject N corrupts digest N first, to prove the
// gate trips).
//
// Exit codes: 0 success, 1 I/O error or replay divergence, 2 usage
// (checked before the run starts), 3 the anomaly detector tripped.
//
// The reference system's verdict on one scene: paraxbench -exp ref-system -bench Mix.
//
// Usage:
//
//	paraxsim -bench Mix -frames 5 -scale 1.0 -threads 4
//	paraxsim -bench Explosions -trace trace.json -metrics metrics.txt
//	paraxsim -bench Mix -cpuprofile cpu.pprof -pprof localhost:6060
//	paraxsim -bench Breakable -frames 10 -save run.paxr
//	paraxsim -load run.paxr -frames 5
//	paraxsim -replay run.paxr -threads 8
//	paraxsim -list
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/parallax-arch/parallax/internal/arch/kernels"
	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/replay"
	"github.com/parallax-arch/parallax/internal/phys/workload"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

var (
	bench   = flag.String("bench", "Mix", "benchmark name")
	frames  = flag.Int("frames", 5, "frames to simulate (3 steps each)")
	scale   = flag.Float64("scale", 1.0, "workload scale (1.0 = paper)")
	threads = flag.Int("threads", 1, "worker threads for parallel phases")
	list    = flag.Bool("list", false, "list benchmarks and exit")

	saveFile   = flag.String("save", "", "after the run, record a replay (snapshot + digests) to `file`")
	loadFile   = flag.String("load", "", "start from the world snapshot in replay `file` instead of building")
	replayFile = flag.String("replay", "", "verify replay `file` step by step and exit (non-zero on divergence)")
	injectStep = flag.Int("inject", -1, "with -replay: corrupt the recorded digest of step `N` first")

	flightDir = flag.String("flightdir", "", "write black-box flight bundles under `dir` when the anomaly detector trips (or a replay diverges)")
	nanStep   = flag.Int("nan", -1, "corrupt one body velocity to NaN before frame `N` (tests the flight recorder)")

	obsFlags = obs.RegisterFlags(flag.CommandLine)
)

// flightSeriesSteps is the resident series window: how many trailing
// steps of telemetry a flight bundle (and /series.json) carries.
const flightSeriesSteps = 512

func main() { os.Exit(run()) }

// run picks the mode and runs it under the shared profiling and
// telemetry flags, so their outputs are written whatever it returns.
func run() int {
	flag.Parse()
	if *list {
		for _, b := range workload.All {
			fmt.Printf("%-12s %-22s %s\n", b.Name, "("+b.Genre+")", b.Desc)
		}
		return 0
	}
	b, ok := workload.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q (valid: %s)\n", *bench, strings.Join(workload.Names(), ", "))
		return 2
	}
	if !(*scale > 0) { // NaN too
		fmt.Fprintf(os.Stderr, "invalid -scale %v: must be > 0\n", *scale)
		return 2
	}

	// One tracer + registry observe the run. The flight recorder is
	// always on: the series rings and the detector are allocation-free
	// per step (BenchmarkStep pins that), so there is no "fast mode"
	// without them to fall out of sync with.
	tr, reg := obs.NewTracer(), obs.NewRegistry()
	series, health := obs.NewSeries(flightSeriesSteps), obs.NewHealth()
	return obsFlags.Run(tr, reg, series, health, func() int {
		if *replayFile != "" {
			return verify()
		}
		return simulate(b, tr, reg, series, health)
	})
}

// verify is the -replay mode: re-step the recording and fail on the
// first divergent step.
func verify() int {
	rec, err := replay.Load(*replayFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *injectStep >= 0 {
		if *injectStep >= len(rec.Digests) {
			fmt.Fprintf(os.Stderr, "-inject %d out of range (%d recorded steps)\n",
				*injectStep, len(rec.Digests))
			return 1
		}
		rec.Digests[*injectStep] ^= 0x1
		fmt.Printf("injected divergence into step %d\n", *injectStep)
	}
	fmt.Printf("replaying %q: %d steps at %d threads...\n",
		rec.Label, len(rec.Digests), *threads)
	_, bundle, err := replay.VerifyToBundle(rec, *threads, *flightDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if bundle != "" {
			fmt.Fprintf(os.Stderr, "flight bundle written to %s\n", bundle)
		}
		return 1
	}
	fmt.Printf("replay ok: %d steps bit-identical\n", len(rec.Digests))
	return 0
}

// simulate builds (or -loads) the world, steps it frame by frame
// printing the per-frame counters, and then runs the -save epilogue. A
// detector trip stops the run with exit code 3.
func simulate(b workload.Benchmark, tr *obs.Tracer, reg *obs.Registry, series *obs.Series, health *obs.Health) int {
	var w *world.World
	if *loadFile != "" {
		rec, err := replay.Load(*loadFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("loading world state from %s (%q)...\n", *loadFile, rec.Label)
		if w, err = rec.World(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	} else {
		fmt.Printf("building %s at scale %.2f...\n", b.Name, *scale)
		w = b.Build(*scale)
	}
	w.SetThreads(*threads)
	w.SetObs(tr, reg, "engine/"+b.Name)
	w.SetSeries(series)
	w.SetHealth(health)

	fmt.Printf("bodies=%d geoms=%d joints=%d cloths=%d\n",
		len(w.Bodies), len(w.Geoms), len(w.Joints), len(w.Cloths))

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "frame\tpairs\tcontacts\tislands\tmaxDOF\texplosions\tfractures\tbreaks\tinstr(M)\twall")
	for f := 0; f < *frames; f++ {
		if f == *nanStep && len(w.Bodies) > 0 {
			fmt.Fprintf(os.Stderr, "corrupting body 0 velocity to NaN before frame %d\n", f+1)
			w.Bodies[0].LinVel.X = math.NaN()
		}
		t0 := time.Now()
		fp := w.StepFrame()
		wall := time.Since(t0)
		var expl, frac, brk, maxDOF int
		var instr float64
		for i := range fp.Steps {
			s := &fp.Steps[i]
			expl += s.Explosions
			frac += s.FractureHit
			brk += s.JointBreaks
			for _, is := range s.Islands {
				maxDOF = max(maxDOF, is.DOF)
			}
			instr += kernels.DefaultCost.InstrCounts(s).Total()
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f\t%v\n",
			f+1, fp.TotalPairs(), fp.TotalContacts(), fp.MaxIslands(), maxDOF, expl, frac, brk,
			instr/1e6, wall.Round(time.Millisecond))
		if health.Tripped() {
			break
		}
	}
	tw.Flush()

	if health.Tripped() {
		st := health.Status()
		fmt.Fprintf(os.Stderr, "anomaly detector tripped: %s at step %d (observed %g, baseline %g)\n",
			st.Cause, st.Step, st.Observed, st.Baseline)
		if *flightDir != "" {
			info := obs.FlightInfo{Cause: st.Cause.String(), Step: st.Step, Label: b.Name}
			bundle, err := replay.WriteTripBundle(*flightDir, info, w, tr, reg, series)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "flight bundle written to %s\n", bundle)
		}
		// Exit 3 distinguishes "the physics diverged" from usage (2) and
		// I/O (1) failures, so scripts and CI never read a poisoned run
		// as a result.
		return 3
	}

	// Final phase summary of the last step.
	p := w.Profile
	fmt.Printf("\nlast step: broad[geoms=%d sorts=%d] narrow[prim=%d tri=%d] "+
		"islandgen[finds=%d] solver[rows=%d updates=%d] cloth[verts=%d]\n",
		p.Broad.Geoms, p.Broad.SortOps, p.Narrow.PrimTests, p.Narrow.TriTests,
		p.FindSteps, p.Solver.Rows, p.Solver.RowUpdates, p.Cloth.VertexUpdates)

	if *saveFile != "" {
		label := fmt.Sprintf("%s scale=%.2f threads=%d", b.Name, *scale, *threads)
		steps := *frames * world.StepsPerFrame
		fmt.Printf("recording %d more steps to %s...\n", steps, *saveFile)
		rec := replay.Record(w, label, steps)
		if err := rec.Save(*saveFile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}
