package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef describes one metric of the contract in BENCHMARK.json. The
// table below is the single source: `-manifest` prints BENCHMARK.json from
// it and a unit test fails when the committed file drifts.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening as a share of the parent's median
	// Exact marks a count the program must reproduce bit for bit from the
	// same seed; -selfcheck fails when two same-seed runs disagree on it.
	Exact bool
	// Source is the call the number is taken around; Moves names the
	// end-to-end metric and workload the layer metric should move. Both
	// feed README tables only (the contract allows no extra keys).
	Source string
	Moves  string
}

// endToEnd are the numbers a user of the system feels. Every workload
// reports all of them; "operation" is the unit of work that workload's
// user waits for (see workloadDef.Op).
var endToEnd = []metricDef{
	{Name: "op_ms_mean", Unit: "ms", Better: "lower", Bound: 0.25,
		Source: "mean wall time of one operation over the run's quiet operations (quietProfile, quietWindows, the fastest sweep); Dt/mean is a step workload's real-time factor, on harness-sweep it is the sweep"},
	{Name: "op_ms_p95", Unit: "ms", Better: "lower", Bound: 0.25,
		Source: "95th percentile of the same operations"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Source: "one full set-up, each of its parts taken from the fastest of the run's repeats (three; six captures on harness-sweep)"},
}

// perLayer are the traced run's numbers, one group per module.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(m metricDef) { out = append(out, m) }

	const stepAll = "op_ms_mean on step-*; op_ms_p95 on serve-fleet"
	for _, ph := range phaseNames {
		add(metricDef{Name: "world.phase." + ph + "_us", Unit: "us", Better: "lower",
			Source: "Tracer.SpanTotal(\"" + ph + "\") over the quietest of the traced episodes / steps; spans the engine publishes via World.SetObs", Moves: stepAll})
		add(metricDef{Name: "world.phase." + ph + "_frac", Unit: "frac", Better: "lower",
			Source: "phase span total / step span total, same episode", Moves: "says which layer owns op_ms_mean"})
	}
	add(metricDef{Name: "world.self_us", Unit: "us", Better: "lower",
		Source: "median quiet threads=1 step time at the sampled steps - the replayed layers' medians (dispatch, merge, integrate glue)", Moves: "op_ms_mean on step-mix"})
	add(metricDef{Name: "world.allocs_per_step", Unit: "count", Better: "lower",
		Source: "runtime.MemStats.Mallocs delta over 50 further steps of the bare world / 50", Moves: "op_ms_p95 on step-* (GC pauses)"})
	add(metricDef{Name: "world.step_ms_p50", Unit: "ms", Better: "lower",
		Source: "World.Step, quiet profile of the bare threads=1 episodes", Moves: "op_ms_mean on step-*"})
	add(metricDef{Name: "world.step_ms_p99", Unit: "ms", Better: "lower",
		Source: "World.Step, quiet profile of the bare threads=1 episodes", Moves: "op_ms_p95 on step-*"})
	add(metricDef{Name: "world.realtime_factor", Unit: "x", Better: "higher",
		Source: "Dt / mean quiet step time of the configured-threads episodes (engine spans on)", Moves: "op_ms_mean on step-*"})
	add(metricDef{Name: "world.final_crc32", Unit: "count", Better: "lower", Exact: true,
		Source: "CRC-32 of the World.Snapshot payload after the reference episode; every other episode must match it", Moves: "none (determinism guard)"})
	add(metricDef{Name: "world.mt_speedup", Unit: "x", Better: "higher",
		Source: "quiet threads=1 step p50 / quiet threads=min(nproc,4) step p50; 1.0 on a one-CPU machine", Moves: "op_ms_mean on step-mix"})
	add(metricDef{Name: "proc.heap_mb_peak", Unit: "MB", Better: "lower",
		Source: "max runtime.MemStats.HeapInuse over the probe stages", Moves: "setup_s"})
	add(metricDef{Name: "proc.num_cpu", Unit: "count", Better: "higher", Source: "runtime.NumCPU", Moves: "context for world.mt_speedup"})
	add(metricDef{Name: "proc.gomaxprocs", Unit: "count", Better: "higher", Source: "runtime.GOMAXPROCS(0)", Moves: "context for world.mt_speedup"})

	const broadMoves = "op_ms_mean on step-broad (~0.6 of a saving), ~0.1 on step-solver, ~0.2 on step-mix"
	add(metricDef{Name: "broadphase.sap_us", Unit: "us", Better: "lower",
		Source: "SweepAndPrune.PairsPrerefreshed with the world's own carried order", Moves: broadMoves})
	add(metricDef{Name: "broadphase.incsap_us", Unit: "us", Better: "lower",
		Source: "IncrementalSAP.PairsPrerefreshed, second call (one step of motion)", Moves: broadMoves + " once it is the default"})
	add(metricDef{Name: "broadphase.hash_us", Unit: "us", Better: "lower",
		Source: "SpatialHash.PairsPrerefreshed on the same geoms", Moves: broadMoves + " once it is the default"})
	add(metricDef{Name: "broadphase.pairs", Unit: "count", Better: "lower", Exact: true,
		Source: "len(pairs), summed over the sampled steps", Moves: "narrowphase.collide_us"})
	add(metricDef{Name: "broadphase.incsap_sort_ops", Unit: "count", Better: "lower", Exact: true,
		Source: "IncrementalSAP.Stats().SortOps, summed over the sampled steps", Moves: "broadphase.incsap_us"})

	const mixOnly = "op_ms_mean on step-mix"
	add(metricDef{Name: "narrowphase.collide_us", Unit: "us", Better: "lower",
		Source: "Scratch.Collide over the step's pair list", Moves: mixOnly + ", step-broad"})
	add(metricDef{Name: "narrowphase.ns_per_pair", Unit: "ns", Better: "lower",
		Source: "collide time / pairs tested", Moves: mixOnly})
	add(metricDef{Name: "narrowphase.contacts", Unit: "count", Better: "lower", Exact: true,
		Source: "contacts out, summed over the sampled steps", Moves: "solver.rows"})
	add(metricDef{Name: "narrowphase.hit_ratio", Unit: "frac", Better: "higher",
		Source: "pairs yielding >= 1 contact / pairs tested (the broad phase's wasted work)", Moves: "narrowphase.collide_us"})

	add(metricDef{Name: "island.build_us", Unit: "us", Better: "lower",
		Source: "island.Builder.Build", Moves: "op_ms_mean on step-mix, step-broad"})
	add(metricDef{Name: "island.count", Unit: "count", Better: "higher", Exact: true,
		Source: "islands, summed over the sampled steps", Moves: "world.mt_speedup (parallel slack)"})
	add(metricDef{Name: "island.max_rows", Unit: "count", Better: "lower", Exact: true,
		Source: "largest island DOF over the sampled steps", Moves: "world.mt_speedup (the serial tail)"})

	const solverMoves = "op_ms_mean on step-solver (~0.85 of a saving), step-mix (~0.4), step-broad (~0.3); op_ms_mean and op_ms_p95 on serve-fleet (shorter ticks, and the wait behind them goes with their square); nothing on harness-sweep"
	add(metricDef{Name: "joint.rows_us", Unit: "us", Better: "lower",
		Source: "Joint.Rows + joint.ContactRows for every island", Moves: solverMoves})
	add(metricDef{Name: "solver.solve_us", Unit: "us", Better: "lower",
		Source: "Solver.Solve for every island", Moves: solverMoves})
	add(metricDef{Name: "solver.rows", Unit: "count", Better: "lower", Exact: true,
		Source: "solver.Stats.Rows, summed over the sampled steps", Moves: "solver.solve_us"})
	add(metricDef{Name: "solver.row_updates", Unit: "count", Better: "lower", Exact: true,
		Source: "solver.Stats.RowUpdates, summed over the sampled steps", Moves: "solver.solve_us"})
	add(metricDef{Name: "solver.ns_per_row_update", Unit: "ns", Better: "lower",
		Source: "solve time / row updates", Moves: solverMoves})
	add(metricDef{Name: "solver.residual", Unit: "abs", Better: "lower",
		Source: "solver.Stats.Residual, mean over the sampled steps", Moves: "none (convergence guard for a faster sweep)"})

	add(metricDef{Name: "cloth.step_us", Unit: "us", Better: "lower",
		Source: "SatisfyPins + Integrate + Relax + CollideGeom + UpdateBox per cloth", Moves: mixOnly})
	add(metricDef{Name: "cloth.verts", Unit: "count", Better: "lower", Exact: true,
		Source: "cloth.Stats.VertexUpdates, summed over the sampled steps", Moves: "cloth.step_us"})
	add(metricDef{Name: "cloth.ns_per_vert", Unit: "ns", Better: "lower",
		Source: "cloth time / vertex updates", Moves: mixOnly})

	const snapMoves = "op_ms_mean on serve-fleet (15% of requests encode or decode a world); setup_s"
	add(metricDef{Name: "snapshot.encode_ms", Unit: "ms", Better: "lower", Source: "World.Snapshot", Moves: snapMoves})
	add(metricDef{Name: "snapshot.restore_ms", Unit: "ms", Better: "lower", Source: "World.Restore", Moves: snapMoves})
	add(metricDef{Name: "snapshot.bytes", Unit: "count", Better: "lower", Exact: true, Source: "len(World.Snapshot())", Moves: "snapshot.encode_ms"})

	add(metricDef{Name: "obs.step_overhead_frac", Unit: "frac", Better: "lower",
		Source: "quiet step p50 with Tracer + Registry + Series + Health attached / bare quiet p50 - 1", Moves: "every step metric once telemetry is on by default"})
	add(metricDef{Name: "obs.metrics_scrape_ms", Unit: "ms", Better: "lower",
		Source: "obs.WriteProm over the world's registry and series", Moves: "op_ms_p95 on serve-fleet when scraped"})

	for _, r := range routeNames {
		add(metricDef{Name: "serve.route." + r + "_ms_p50", Unit: "ms", Better: "lower",
			Source: "HTTP " + r + " from due time, open loop", Moves: "op_ms_mean on serve-fleet"})
	}
	const queueMoves = "op_ms_p95 on serve-fleet (latency rises before the tick rate falls)"
	add(metricDef{Name: "serve.http_floor_ms_p50", Unit: "ms", Better: "lower", Source: "GET /health, never enters a shard", Moves: "op_ms_mean on serve-fleet"})
	add(metricDef{Name: "serve.queue_wait_ms_p95", Unit: "ms", Better: "lower", Source: "info p95 - /health p95", Moves: queueMoves})
	add(metricDef{Name: "serve.tick_ms_p50", Unit: "ms", Better: "lower", Source: "ShardBench.Tick on an identical fleet", Moves: queueMoves})
	add(metricDef{Name: "serve.tick_util_frac", Unit: "frac", Better: "lower", Source: "tick_ms_p50 * Hz / 1000", Moves: queueMoves})
	add(metricDef{Name: "serve.tick_rate_frac", Unit: "frac", Better: "higher", Source: "delta serve/ticks / (Hz * window); 1.0 = fleet kept real time", Moves: "none until the shard saturates"})
	add(metricDef{Name: "serve.create_scene_ms", Unit: "ms", Better: "lower", Source: "Server.Create(scene) direct", Moves: "setup_s on serve-fleet"})
	add(metricDef{Name: "serve.create_snapshot_ms", Unit: "ms", Better: "lower", Source: "Server.Create(snapshot) direct", Moves: "serve.route.create_ms_p50"})
	add(metricDef{Name: "serve.deadline_miss_rate", Unit: "frac", Better: "lower", Source: "delta serve/deadline_misses / session-ticks", Moves: "serve.evictions"})
	add(metricDef{Name: "serve.evictions", Unit: "count", Better: "lower", Source: "delta serve/evictions", Moves: "failed operations on serve-fleet"})
	add(metricDef{Name: "serve.rejections", Unit: "count", Better: "lower", Source: "delta serve/rejections", Moves: "failed operations on serve-fleet"})
	add(metricDef{Name: "serve.gen_late_ms_max", Unit: "ms", Better: "lower", Source: "max(sent - due) of the load generator", Moves: "trust in op_ms_* on serve-fleet"})

	const archMoves = "op_ms_mean on harness-sweep"
	add(metricDef{Name: "arch.capture_ms", Unit: "ms", Better: "lower", Source: "parallax.Capture(scene, 1 warm + 3 measured frames)", Moves: "setup_s on harness-sweep"})
	add(metricDef{Name: "arch.memsim_ms", Unit: "ms", Better: "lower", Source: "Workload.SimulateMemory(4 cores, 12 MB partitioned)", Moves: archMoves})
	add(metricDef{Name: "arch.memsim_ns_per_access", Unit: "ns", Better: "lower", Source: "memsim time / modelled accesses", Moves: archMoves})
	add(metricDef{Name: "arch.cache_ns_per_access", Unit: "ns", Better: "lower", Source: "cache.Hierarchy.Access over a seeded stream 4x the modelled L2", Moves: archMoves})
	add(metricDef{Name: "arch.cpu_minstr_per_s", Unit: "Minstr/s", Better: "higher", Source: "cpu.Core.Run on a seeded kernel trace", Moves: archMoves})
	add(metricDef{Name: "arch.evaluate_ms", Unit: "ms", Better: "lower", Source: "Workload.Evaluate(parallax.Reference())", Moves: archMoves})
	return out
}

var phaseNames = []string{"broadphase", "narrowphase", "island-creation", "island-processing", "integrate", "cloth"}

var routeNames = []string{"query", "info", "snapshot", "step", "create", "delete"}

// result is what one run reports. metrics holds the contract metrics (all
// end-to-end ones with tracing off, all per-layer ones with tracing on);
// extra holds workload-specific numbers that are printed by name and unit
// but are not part of the contract line.
type result struct {
	attempted int
	failed    int
	failures  []string // first few violations, for the human reading the log
	metrics   map[string]float64
	extra     []extraMetric
}

type extraMetric struct {
	name  string
	value float64
	unit  string
	note  string
}

func newResult() *result { return &result{metrics: make(map[string]float64)} }

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) addExtra(name string, v float64, unit, note string) {
	r.extra = append(r.extra, extraMetric{name, v, unit, note})
}

// ok counts one verified operation.
func (r *result) ok(n int) { r.attempted += n }

// fail counts one attempted operation whose output was wrong.
func (r *result) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one operation, failed unless cond holds.
func (r *result) check(cond bool, format string, args ...any) {
	if cond {
		r.attempted++
		return
	}
	r.fail(format, args...)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints every metric by name and unit, then the contract line. A
// contract metric the run did not produce, or a non-finite one, is a bug in
// the benchmark and is reported as an error instead of a made-up number.
func (r *result) write(w io.Writer, defs []metricDef) error {
	out := jsonResult{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "metric %-36s %16.6f %s\n", d.Name, v, d.Unit)
	}
	sort.SliceStable(r.extra, func(i, j int) bool { return r.extra[i].name < r.extra[j].name })
	for _, e := range r.extra {
		fmt.Fprintf(w, "extra  %-36s %16.6f %-8s %s\n", e.name, e.value, e.unit, e.note)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "failure: %s\n", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.Name, w.Why})
	}
	for i := range endToEnd {
		d := &endToEnd[i]
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}

// printTables writes the README's metric tables from the definitions, so
// the document cannot name a metric the program does not report.
func printTables(w io.Writer) {
	fmt.Fprintln(w, "| name | unit | better | bound | source |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "| `%s` | %s | %s | %.0f %% | %s |\n", d.Name, d.Unit, d.Better, d.Bound*100, d.Source)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| name | unit | better | exact | source call |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, d := range perLayer {
		exact := ""
		if d.Exact {
			exact = "yes"
		}
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s |\n", d.Name, d.Unit, d.Better, exact, d.Source)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| layer metric | should move |")
	fmt.Fprintln(w, "|---|---|")
	for _, d := range perLayer {
		fmt.Fprintf(w, "| `%s` | %s |\n", d.Name, d.Moves)
	}
}
