// Command paraxsim runs one benchmark of the physics suite and reports
// per-phase workload statistics: pairs, contacts, islands, fine-grain
// task counts, and the modeled per-frame instruction totals.
//
// Observability: -trace exports the run's engine phase/worker spans
// (and, with -eval, the architecture-model spans) as Chrome trace-event
// JSON for Perfetto (ui.perfetto.dev); -metrics writes the text
// snapshot of the run's counters. -cpuprofile, -memprofile and -pprof
// expose the standard Go profilers.
//
// Live telemetry: every run records a per-step series (kinetic energy,
// solver residual/impulse norms, max penetration, island stats,
// broad-phase churn, per-phase durations) into preallocated rings and
// feeds the anomaly detector (NaN state, energy spike, residual
// blowup, rebuild storm). -serve addr exposes /metrics (Prometheus
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
// Benchmarking: -stepbench runs the steady-state wall/rubble stepping
// scene (the same scene as the repo's BenchmarkStep) at each listed
// thread count and reports per-step wall time, per-phase span totals,
// allocations per step, and the measured serial fraction; -stepjson
// writes the machine-readable report (see BENCH_step.json at the repo
// root for the committed baseline and CI's allocation gate).
//
// Usage:
//
//	paraxsim -bench Mix -frames 5 -scale 1.0 -threads 4
//	paraxsim -bench Explosions -trace trace.json -metrics metrics.txt
//	paraxsim -bench Mix -cpuprofile cpu.pprof -pprof localhost:6060
//	paraxsim -bench Breakable -frames 10 -save run.paxr
//	paraxsim -bench Mix -broad incsap -frames 5
//	paraxsim -stepbench 1,2,4,8 -stepjson BENCH_step.json
//	paraxsim -replay run.paxr -threads 8
//	paraxsim -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/parallax-arch/parallax/internal/arch/kernels"
	archpx "github.com/parallax-arch/parallax/internal/arch/parallax"
	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/broadphase"
	"github.com/parallax-arch/parallax/internal/phys/replay"
	"github.com/parallax-arch/parallax/internal/phys/workload"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

func main() {
	var (
		bench   = flag.String("bench", "Mix", "benchmark name")
		frames  = flag.Int("frames", 5, "frames to simulate (3 steps each)")
		scale   = flag.Float64("scale", 1.0, "workload scale (1.0 = paper)")
		threads = flag.Int("threads", 1, "worker threads for parallel phases")
		list    = flag.Bool("list", false, "list benchmarks and exit")
		eval    = flag.Bool("eval", false, "also evaluate the ParallAX reference system on this benchmark")
		broad   = flag.String("broad", "", "broad-phase algorithm: "+strings.Join(broadphase.Names, "|")+" (default: the world's own; with -load, replaces the restored broad phase and discards its saved sweep state)")

		stepBench = flag.String("stepbench", "", "comma list of thread counts (e.g. 1,2,4,8): run the steady-state step benchmark and exit")
		stepJSON  = flag.String("stepjson", "", "with -stepbench: write the machine-readable report to `file`")
		stepN     = flag.Int("stepn", 200, "with -stepbench: measured steps per thread count")

		saveFile   = flag.String("save", "", "after the run, record a replay (snapshot + digests) to `file`")
		loadFile   = flag.String("load", "", "start from the world snapshot in replay `file` instead of building")
		replayFile = flag.String("replay", "", "verify replay `file` step by step and exit (non-zero on divergence)")
		injectStep = flag.Int("inject", -1, "with -replay: corrupt the recorded digest of step `N` first")

		serveAddr = flag.String("serve", "", "serve live telemetry on `addr`: /metrics /health /trace /series.json")
		flightDir = flag.String("flightdir", "", "write black-box flight bundles under `dir` when the anomaly detector trips (or a replay diverges)")
		nanStep   = flag.Int("nan", -1, "corrupt one body velocity to NaN before frame `N` (tests the flight recorder)")

		traceFile  = flag.String("trace", "", "write Chrome trace-event JSON (Perfetto) to `file`")
		metricsOut = flag.String("metrics", "", "write the metrics snapshot to `file`")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to `file`")
		memProfile = flag.String("memprofile", "", "write a heap profile to `file` at exit")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on `addr` (e.g. localhost:6060)")
	)
	flag.Parse()

	if *list {
		for _, b := range workload.All {
			fmt.Printf("%-12s %-22s %s\n", b.Name, "("+b.Genre+")", b.Desc)
		}
		return
	}

	if *stepBench != "" {
		runStepBench(*stepBench, *stepN, *broad, *stepJSON)
		return
	}

	if *replayFile != "" {
		rec, err := replay.Load(*replayFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *injectStep >= 0 {
			if *injectStep >= len(rec.Digests) {
				fmt.Fprintf(os.Stderr, "-inject %d out of range (%d recorded steps)\n",
					*injectStep, len(rec.Digests))
				os.Exit(1)
			}
			rec.Digests[*injectStep] ^= 0x1
			fmt.Printf("injected divergence into step %d\n", *injectStep)
		}
		fmt.Printf("replaying %q: %d steps at %d threads...\n",
			rec.Label, len(rec.Digests), *threads)
		if div, err := replay.Verify(rec, *threads); err != nil {
			fmt.Fprintln(os.Stderr, err)
			if *flightDir != "" && div >= 0 {
				// Black-box the divergence: the bundle's snapshot plus the
				// digests up to (and including) the divergent step form a
				// recording that re-diverges at exactly the same step, so
				// the failure is portable and replayable on any machine.
				info := obs.FlightInfo{Cause: "replay_divergence", Step: int64(div), Label: rec.Label}
				bundle, berr := obs.WriteFlightBundle(*flightDir, info, rec.Snapshot, nil, nil, nil)
				if berr != nil {
					fmt.Fprintln(os.Stderr, berr)
					os.Exit(1)
				}
				trimmed := &replay.Recording{
					Label:    rec.Label,
					Snapshot: rec.Snapshot,
					Digests:  rec.Digests[:div+1],
				}
				if berr := trimmed.Save(filepath.Join(bundle, "replay.paxr")); berr != nil {
					fmt.Fprintln(os.Stderr, berr)
					os.Exit(1)
				}
				fmt.Fprintf(os.Stderr, "flight bundle written to %s\n", bundle)
			}
			os.Exit(1)
		}
		fmt.Printf("replay ok: %d steps bit-identical\n", len(rec.Digests))
		return
	}

	b, ok := workload.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q; use -list\n", *bench)
		os.Exit(1)
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "# pprof: http://%s/debug/pprof/\n", *pprofAddr)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	// One tracer + registry observe the interactive run; exports are
	// written at exit when -trace/-metrics name files.
	tr := obs.NewTracer()
	reg := obs.NewRegistry()

	var w *world.World
	if *loadFile != "" {
		rec, err := replay.Load(*loadFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("loading world state from %s (%q)...\n", *loadFile, rec.Label)
		w = world.New()
		if err := w.Restore(rec.Snapshot); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		fmt.Printf("building %s at scale %.2f...\n", b.Name, *scale)
		w = b.Build(*scale)
	}
	if *broad != "" {
		// After a -load Restore this replaces the snapshot's broad phase
		// (and its saved sweep order / pair set): the run is then a fresh
		// start for the chosen algorithm, not a bit-exact resume.
		bp, err := broadphase.NewByName(*broad)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		w.Broad = bp
	}
	w.SetThreads(*threads)
	w.SetObs(tr, reg, "engine/"+b.Name)

	// The flight recorder is always on: the series rings and the
	// detector are allocation-free per step (BenchmarkStep pins that),
	// so there is no "fast mode" without them to fall out of sync with.
	series := obs.NewSeries(flightSeriesSteps)
	health := obs.NewHealth()
	w.SetSeries(series)
	w.SetHealth(health)

	if *serveAddr != "" {
		go func() {
			if err := http.ListenAndServe(*serveAddr, obs.Handler(tr, reg, series, health)); err != nil {
				fmt.Fprintf(os.Stderr, "telemetry server: %v\n", err)
				os.Exit(1)
			}
		}()
		fmt.Fprintf(os.Stderr, "# telemetry: http://%s/metrics /health /trace /series.json\n", *serveAddr)
	}

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
		var pairs, contacts, expl, frac, brk int
		islands, maxDOF := 0, 0
		var instr float64
		for i := range fp.Steps {
			s := &fp.Steps[i]
			pairs += s.Pairs
			contacts += s.Contacts
			expl += s.Explosions
			frac += s.FractureHit
			brk += s.JointBreaks
			if len(s.Islands) > islands {
				islands = len(s.Islands)
			}
			for _, is := range s.Islands {
				if is.DOF > maxDOF {
					maxDOF = is.DOF
				}
			}
			instr += kernels.DefaultCost.InstrCounts(s).Total()
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f\t%v\n",
			f+1, pairs, contacts, islands, maxDOF, expl, frac, brk, instr/1e6,
			wall.Round(time.Millisecond))
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
			bundle, err := obs.WriteFlightBundle(*flightDir, info, w.Snapshot(), tr, reg, series)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			// A recording of the tripped world: -load restores it (the
			// detector re-trips on the first step), -replay re-verifies
			// the post-divergence digests.
			rec := replay.Record(w, info.Label+" (flight)", world.StepsPerFrame)
			if err := rec.Save(filepath.Join(bundle, "replay.paxr")); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "flight bundle written to %s\n", bundle)
		}
		// Exit 3 distinguishes "the physics diverged" from usage (2) and
		// I/O (1) failures, so scripts and CI never read a poisoned run
		// as a result.
		os.Exit(3)
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
			os.Exit(1)
		}
	}

	if *eval {
		fmt.Println("\nevaluating the ParallAX reference system (4 CG + 12MB partitioned L2 + 150 shaders on-chip)...")
		ew := b.Build(*scale)
		ew.SetObs(tr, reg, "engine/eval/"+b.Name)
		wl := archpx.Capture(b.Name, ew, 1, 3)
		wl.SetObs(tr, reg, "arch/"+b.Name)
		bd := wl.Evaluate(archpx.Reference())
		fmt.Printf("  serial %.2f ms + CG %.2f ms + FG %.2f ms = %.2f ms (%.1f FPS, %t for 30 FPS)\n",
			bd.SerialTime*1e3, bd.CGParallelTime*1e3, bd.FGTime*1e3,
			bd.Total()*1e3, bd.FPS(), bd.MeetsRealTime())
		fmt.Printf("  estimated area: %.0f mm2 at 90nm\n", bd.AreaMM2)
	}

	if *traceFile != "" {
		writeTo(*traceFile, tr.WriteTrace)
	}
	if *metricsOut != "" {
		// No Tracer.Publish here: the -metrics file is the deterministic
		// snapshot, byte-identical across -threads values. Span totals
		// and drop counters are wall-clock/schedule-dependent; they are
		// published into flight-bundle metrics.txt instead.
		writeTo(*metricsOut, reg.WriteSnapshot)
	}
	if *memProfile != "" {
		runtime.GC()
		writeTo(*memProfile, pprof.WriteHeapProfile)
	}

	if *serveAddr != "" {
		fmt.Fprintln(os.Stderr, "run complete; serving telemetry until killed")
		select {}
	}
}

// flightSeriesSteps is the resident series window: how many trailing
// steps of telemetry a flight bundle (and /series.json) carries.
const flightSeriesSteps = 512

// benchPhase is one engine phase's share of a measured stepbench run.
type benchPhase struct {
	Name      string  `json:"name"`
	NsPerStep float64 `json:"ns_per_step"`
	Fraction  float64 `json:"fraction_of_step"`
}

// benchRun is one thread count's measurement.
type benchRun struct {
	Threads        int          `json:"threads"`
	NsPerStep      float64      `json:"ns_per_step"`
	AllocsPerStep  float64      `json:"allocs_per_step"`
	SerialFraction float64      `json:"serial_fraction"`
	Phases         []benchPhase `json:"phases"`
}

// benchReport is the machine-readable -stepbench output (the committed
// baseline lives at BENCH_step.json; CI regenerates it and gates on
// allocs_per_step staying zero).
type benchReport struct {
	Scene       string     `json:"scene"`
	Broad       string     `json:"broad"`
	SettleSteps int        `json:"settle_steps"`
	Steps       int        `json:"steps"`
	GoMaxProcs  int        `json:"gomaxprocs"`
	NumCPU      int        `json:"num_cpu"`
	Runs        []benchRun `json:"runs"`
}

// stepBenchPhases are the spans reported by -stepbench, from the
// engine's own span table: the step phases, then the chunked phases'
// work-item spans summed across lanes. stepBenchSerial are the phases
// that still contain the step's serial sections (pair emission and the
// union-find merge); their combined share of the step span is reported
// as serial_fraction. refresh-chunk and edge-chunk are the
// parallelizable portions of those two phases and are recorded at every
// thread count, so at 1 thread (phase − chunk) is the residual serial
// budget of each.
var stepBenchPhases, stepBenchSerial = func() ([]string, []string) {
	phases, serial, chunks := world.SpanNames()
	return append(phases, chunks...), serial
}()

// stepBenchSettle matches BenchmarkStep's settle loop: the scene
// reaches a steady contact topology before measurement starts.
const stepBenchSettle = 120

// runStepBench measures steady-state stepping of the wall/rubble scene
// at each listed thread count: wall time and heap allocations per step,
// plus each phase's cumulative span time (from the tracer's totals
// table), and writes the JSON report when jsonPath is set.
func runStepBench(threadList string, steps int, broadName, jsonPath string) {
	var counts []int
	for _, s := range strings.Split(threadList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "invalid -stepbench entry %q: want positive integers\n", s)
			os.Exit(2)
		}
		counts = append(counts, n)
	}
	if steps < 1 {
		fmt.Fprintf(os.Stderr, "invalid -stepn %d: must be >= 1\n", steps)
		os.Exit(2)
	}

	rep := benchReport{
		Scene:       "WallRubble",
		Broad:       broadName,
		SettleSteps: stepBenchSettle,
		Steps:       steps,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
	}
	if rep.Broad == "" {
		rep.Broad = "default"
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "threads\tns/step\tallocs/step\tserial%\t"+strings.Join(stepBenchPhases, "\t"))
	for _, n := range counts {
		run := stepBenchOne(n, steps, broadName)
		rep.Runs = append(rep.Runs, run)
		row := fmt.Sprintf("%d\t%.0f\t%.2f\t%.1f%%", run.Threads, run.NsPerStep,
			run.AllocsPerStep, 100*run.SerialFraction)
		for _, p := range run.Phases {
			row += fmt.Sprintf("\t%.0f", p.NsPerStep)
		}
		fmt.Fprintln(tw, row)
	}
	tw.Flush()

	if jsonPath != "" {
		buf, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(jsonPath, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
}

// stepBenchOne measures one thread count on a freshly built, freshly
// settled world with its own tracer (so span totals start at zero).
func stepBenchOne(threads, steps int, broadName string) benchRun {
	w := workload.BuildWallRubble()
	if broadName != "" {
		bp, err := broadphase.NewByName(broadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		w.Broad = bp
	}
	w.SetThreads(threads)
	tr := obs.NewTracer()
	w.SetObs(tr, nil, "stepbench")

	stepID := tr.Span("step")
	ids := make([]obs.SpanID, len(stepBenchPhases))
	for i, name := range stepBenchPhases {
		ids[i] = tr.Span(name)
	}

	for i := 0; i < stepBenchSettle; i++ {
		w.Step()
	}
	// The timed loop, retried: runtime background work (scheduler,
	// finalizers, GC debt from earlier thread counts' setup) can charge
	// a stray allocation to a pass, so up to five passes run and the
	// one with the fewest heap allocations wins — the
	// minimum-over-retries discipline testing.AllocsPerRun uses. The
	// loop exits on the first clean pass, so retries only cost time
	// when something actually allocated. Each pass re-reads its own
	// span-total baselines, so the winning pass's per-phase deltas
	// cover exactly its own steps.
	var wall time.Duration
	var mallocs uint64
	var stepNs float64
	phaseNs := make([]float64, len(ids))
	for attempt := 0; attempt < 5; attempt++ {
		_, stepNs0 := tr.SpanTotal(stepID)
		base := make([]int64, len(ids))
		for i, id := range ids {
			_, base[i] = tr.SpanTotal(id)
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			w.Step()
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		_, stepNs1 := tr.SpanTotal(stepID)
		alloc := m1.Mallocs - m0.Mallocs
		if attempt == 0 || alloc < mallocs {
			wall, mallocs = d, alloc
			stepNs = float64(stepNs1 - stepNs0)
			for i, id := range ids {
				_, ns1 := tr.SpanTotal(id)
				phaseNs[i] = float64(ns1 - base[i])
			}
		}
		if mallocs == 0 {
			break
		}
	}

	run := benchRun{
		Threads:       threads,
		NsPerStep:     float64(wall.Nanoseconds()) / float64(steps),
		AllocsPerStep: float64(mallocs) / float64(steps),
	}
	var serialNs float64
	for i, name := range stepBenchPhases {
		ns := phaseNs[i]
		frac := 0.0
		if stepNs > 0 {
			frac = ns / stepNs
		}
		run.Phases = append(run.Phases, benchPhase{
			Name:      name,
			NsPerStep: ns / float64(steps),
			Fraction:  frac,
		})
		if slices.Contains(stepBenchSerial, name) {
			serialNs += ns
		}
	}
	if stepNs > 0 {
		run.SerialFraction = serialNs / stepNs
	}
	return run
}

// writeTo creates path and streams write into it, exiting on error.
func writeTo(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := write(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
