package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"github.com/parallax-arch/parallax/internal/arch/cache"
	"github.com/parallax-arch/parallax/internal/arch/cpu"
	"github.com/parallax-arch/parallax/internal/arch/kernels"
	"github.com/parallax-arch/parallax/internal/arch/parallax"
	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// serveProbeSeconds is how long the traced run of a workload other than
// serve-fleet drives the canonical fleet to fill in the serve layer's
// metrics; serve-fleet's own traced run measures for the full time.
const serveProbeSeconds = 5

// replaySamples is how many steps of the detail episode the traced run
// aims to replay through the layers (one every `stride` steps, at most one
// every 50th as long episodes allow), and replayPasses how many times it
// goes over the episode to do so.
const (
	replaySamples = 8
	replayPasses  = 5
)

// heapPeak tracks the largest live heap seen at the probe boundaries.
type heapPeak struct{ bytes uint64 }

func (h *heapPeak) sample() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapInuse > h.bytes {
		h.bytes = m.HeapInuse
	}
}

// runTraced is the separate traced run: it times calls into every layer
// from this directory's files, on the workload's scene, and reports the
// per-layer metrics. The end-to-end metrics are never taken from it.
func runTraced(wl workloadDef, seed int64, seconds float64) (*result, error) {
	res := newResult()
	tr := obs.NewTracer()
	log := newSpanLog(tr, "bench")
	heap := &heapPeak{}

	var err error
	stage := func(name string, fn func() error) {
		if err != nil {
			return
		}
		i := log.begin(name)
		err = fn()
		log.end(i)
		heap.sample()
		if err != nil {
			err = fmt.Errorf("%s: %w", name, err)
		}
	}
	stage("probe-engine", func() error { return probeEngine(wl.Scene, seed, res, log) })
	stage("probe-arch", func() error { return probeArch(wl.Scene, seed, res, log) })
	stage("probe-serve", func() error {
		window := float64(serveProbeSeconds)
		if wl.Kind == kindServe {
			window = seconds
		}
		return probeServe(seed, window, res, log)
	})
	if wl.Kind == kindHarness {
		stage("probe-harness", func() error {
			sweepOnce(capturedSuite(), res, log).extras(res)
			return nil
		})
	}
	if err != nil {
		return nil, err
	}

	res.set("proc.heap_mb_peak", float64(heap.bytes)/(1<<20))
	res.set("proc.num_cpu", float64(runtime.NumCPU()))
	res.set("proc.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	path, err := writeTrace(tr, wl.Name)
	if err != nil {
		return nil, err
	}
	fmt.Printf("trace written to %s (load in ui.perfetto.dev)\n", path)
	return res, nil
}

// probeRounds is how many times the traced run repeats each variant of the
// whole-step episode, round-robin, so that every variant meets the same
// machine and quietProfile has repeats to choose from.
const probeRounds = 3

// probeEngine measures the engine layers on one scene: whole-step episodes
// bare, multi-threaded, with the engine's spans on and with full telemetry,
// then a detail episode whose sampled steps are replayed layer by layer.
func probeEngine(cfg sceneCfg, seed int64, res *result, log *spanLog) error {
	fx, _, err := newFixture(cfg, seed)
	if err != nil {
		return err
	}
	mt := machineThreads()
	reg := obs.NewRegistry()
	series := obs.NewSeries(512)
	health := obs.NewHealth()

	// The variants, in the order they take turns. Bare threads=1 is the
	// baseline every ratio below divides by.
	const (
		vBare  = iota // threads=1, nothing attached
		vMulti        // min(nproc,4) threads, nothing attached
		vSpans        // the workload's threads, the engine's spans on
		vFull         // threads=1 with tracer, registry, series and health
		numVariants
	)
	var worlds [numVariants]*world.World
	worlds[vBare] = newEpisodeWorld(1)
	worlds[vMulti] = newEpisodeWorld(mt)
	worlds[vSpans] = newEpisodeWorld(cfg.threads())
	worlds[vSpans].SetObs(log.tr, obs.NewRegistry(), "engine")
	worlds[vFull] = newEpisodeWorld(1)
	worlds[vFull].SetObs(log.tr, reg, "engine-telemetry")
	worlds[vFull].SetSeries(series)
	worlds[vFull].SetHealth(health)
	defer worlds[vMulti].SetThreads(1)
	defer worlds[vSpans].SetThreads(1)

	// The engine publishes its phase spans as running totals; the quietest
	// round's share of them is the one reported.
	spanNames := append([]string{"step"}, phaseNames...)
	totals := func() map[string]int64 {
		out := make(map[string]int64, len(spanNames))
		for _, name := range spanNames {
			_, out[name] = log.tr.SpanTotal(log.tr.Span(name))
		}
		return out
	}
	var (
		episodes [numVariants][]sample
		phases   map[string]int64
	)
	for round := 0; round < probeRounds; round++ {
		for v, w := range worlds {
			var before map[string]int64
			if v == vSpans {
				before = totals()
			}
			ms, err := fx.episode(w, res)
			if err != nil {
				return err
			}
			episodes[v] = append(episodes[v], ms)
			if v != vSpans {
				continue
			}
			delta := totals()
			for name := range delta {
				delta[name] -= before[name]
			}
			if phases == nil || delta["step"] < phases["step"] {
				phases = delta
			}
		}
	}
	var quiet [numVariants]sample
	for v := range episodes {
		quiet[v] = quietProfile(episodes[v])
	}
	bare := quiet[vBare]
	bareSorted := bare.sorted()
	bareP50 := bareSorted.percentile(0.5)

	steps := float64(cfg.Episode)
	for _, ph := range phaseNames {
		res.set("world.phase."+ph+"_us", float64(phases[ph])/1e3/steps)
		res.set("world.phase."+ph+"_frac", float64(phases[ph])/float64(phases["step"]))
	}
	res.set("world.step_ms_p50", bareP50)
	res.set("world.step_ms_p99", bareSorted.percentile(0.99))
	tail := pickTail(len(bare))
	res.addExtra("world.step_ms_tail", bareSorted.percentile(tail), "ms",
		fmt.Sprintf("p%g of n=%d bare steps; p99 above has fewer than %d samples beyond it when n < 1000", tail*100, len(bare), minBeyond))
	res.set("world.final_crc32", float64(fx.finalCRC))
	res.set("world.mt_speedup", bareP50/median(quiet[vMulti]))
	res.addExtra("world.mt_threads", float64(mt), "count", "threads of the multi-threaded episodes; never above nproc, so never oversubscribed")
	res.set("world.realtime_factor", worlds[vSpans].Dt*1e3/quiet[vSpans].mean())
	// The tracing overhead: the same episodes on the same threads, with the
	// engine's spans on and off.
	untraced := quiet[vBare]
	if cfg.threads() != 1 {
		untraced = quiet[vMulti]
	}
	untracedP50 := median(untraced)
	res.addExtra("world.tracing_overhead_ms", median(quiet[vSpans])-untracedP50, "ms",
		fmt.Sprintf("traced - untraced step p50 on %d threads (untraced %.4f ms)", cfg.threads(), untracedP50))
	res.check(!health.Tripped(), "%s: obs.Health tripped: %+v", cfg.Name, health.Status())
	res.set("obs.step_overhead_frac", median(quiet[vFull])/bareP50-1)

	// Allocation count over further steps of the bare world, so that the
	// episodes' untimed restores are not charged to the steps.
	w := worlds[vBare]
	allocSteps := min(cfg.Episode, 50)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocSteps; i++ {
		w.Step()
	}
	runtime.ReadMemStats(&after)
	res.set("world.allocs_per_step", float64(after.Mallocs-before.Mallocs)/float64(allocSteps))

	var scrape []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		if err := obs.WriteProm(io.Discard, reg, series); err != nil {
			return fmt.Errorf("scrape: %w", err)
		}
		scrape = append(scrape, millis(time.Since(t0)))
	}
	res.set("obs.metrics_scrape_ms", median(scrape))

	// Snapshot layer on the settled world.
	var encMs, decMs []float64
	if err := w.Restore(fx.snap); err != nil {
		return err
	}
	for i := 0; i < 9; i++ {
		var snap []byte
		encMs = append(encMs, float64(log.span("snapshot.encode", func() { snap = w.Snapshot() }))/1e6)
		var rerr error
		decMs = append(decMs, float64(log.span("snapshot.restore", func() { rerr = w.Restore(snap) }))/1e6)
		if rerr != nil {
			return fmt.Errorf("restore own snapshot: %w", rerr)
		}
	}
	res.set("snapshot.encode_ms", median(encMs))
	res.set("snapshot.restore_ms", median(decMs))
	res.set("snapshot.bytes", float64(len(fx.snap)))

	return replayEpisode(fx, w, bare, res, log)
}

// replaySample is one sampled step of the detail episode: what its replay
// did, and each layer's self time in the fastest of the passes.
type replaySample struct {
	step int
	got  replayed
	self map[string]int64
}

// replayPass runs the detail episode on w once and, at every stride-th step,
// clones the world, lets the engine take the step, and re-drives the same
// step on the clone through the layers. The replay must reproduce the
// engine's pair, contact, island, row, integration and cloth counts and its
// exact pair list. It returns the sampled steps and how many candidates were
// skipped; a replay that fails its checks is counted in res and left out.
func replayPass(fx *sceneFixture, w *world.World, rp *replayer, stride int, res *result) ([]replaySample, int, error) {
	cfg := fx.cfg
	if err := w.Restore(fx.snap); err != nil {
		return nil, 0, err
	}
	w.RecordDetail = true
	defer func() { w.RecordDetail = false }()
	var (
		out     []replaySample
		skipped int
		pending bool
	)
	for k := 0; k < cfg.Episode; k++ {
		if k%stride == 0 {
			pending = true
		}
		// A live blast volume pushes and wakes bodies through World's
		// private hit tables; such steps wait for the next quiet one.
		var clone *world.World
		if pending && len(w.Blasts) == 0 {
			c, err := w.Clone()
			if err != nil {
				return nil, 0, fmt.Errorf("clone at step %d: %w", k, err)
			}
			c.RecordDetail = false
			clone = c
		}
		w.Step()
		if clone == nil || w.Profile.Explosions > 0 || w.Profile.FractureHit > 0 {
			if pending {
				skipped++
			}
			continue
		}
		pending = false
		got, root, err := rp.replayStep(clone)
		if err != nil {
			res.fail("%s step %d: %v", cfg.Name, k, err)
			continue
		}
		wantC := countsOf(&w.Profile)
		res.check(got.counts == wantC, "%s step %d: replay counts %+v, World.Profile %+v", cfg.Name, k, got.counts, wantC)
		res.check(got.nextPairsInc == got.nextPairs,
			"%s step %d: incremental SAP found %d pairs after one step, full sweep %d", cfg.Name, k, got.nextPairsInc, got.nextPairs)
		samePairs := len(w.Profile.PairList) == len(rp.pairs)
		for i := 0; samePairs && i < len(rp.pairs); i++ {
			samePairs = w.Profile.PairList[i] == rp.pairs[i]
		}
		res.check(samePairs, "%s step %d: replayed pair list differs from World.Profile.PairList", cfg.Name, k)
		out = append(out, replaySample{step: k, got: got, self: rp.log.selfTimes(root)})
	}
	return out, skipped, nil
}

// replayEpisode makes replayPasses passes over the detail episode, a second
// or so apart, and reports each layer from them: its time at a sampled step
// is the fastest of the passes (every pass replays the same steps), the
// metric is the median over the sampled steps, and counts are sums over
// them. bare holds the quiet threads=1 step times of the same episode, for
// self time.
func replayEpisode(fx *sceneFixture, w *world.World, bare sample, res *result, log *spanLog) error {
	cfg := fx.cfg
	stride := max(1, min(50, cfg.Episode/replaySamples))
	rp := newReplayer(log)
	var (
		samples []replaySample
		skipped int
	)
	for pass := 0; pass < replayPasses; pass++ {
		got, skip, err := replayPass(fx, w, rp, stride, res)
		if err != nil {
			return err
		}
		if pass == 0 {
			samples, skipped = got, skip
			continue
		}
		if len(got) != len(samples) {
			return fmt.Errorf("%s: pass %d replayed %d steps, the first %d", cfg.Name, pass, len(got), len(samples))
		}
		for i := range got {
			for name, ns := range got[i].self {
				samples[i].self[name] = min(samples[i].self[name], ns)
			}
		}
	}
	if len(samples) == 0 {
		return fmt.Errorf("%s: no step of the episode was free of blasts, so no layer was replayed", cfg.Name)
	}
	res.addExtra("replay.samples", float64(len(samples)), "count",
		fmt.Sprintf("one every %d steps, %d passes; %d candidate steps skipped for live blasts or fracture", stride, replayPasses, skipped))

	layers := map[string][]float64{}
	var (
		stepUs, residuals                              []float64
		sum                                            replayed
		collideNs, solveNs, clothNs                    int64
		pairs, contacts, islands, rows, maxRows, verts int
	)
	for _, sm := range samples {
		for _, name := range replayedLayers {
			layers[name] = append(layers[name], float64(sm.self[name])/1e3)
		}
		stepUs = append(stepUs, bare[sm.step]*1e3)
		collideNs += sm.self[spanCollide]
		solveNs += sm.self[spanSolve]
		clothNs += sm.self[spanCloth]
		sum.pairsTested += sm.got.pairsTested
		sum.pairsHit += sm.got.pairsHit
		sum.rowUpdates += sm.got.rowUpdates
		sum.incsapSort += sm.got.incsapSort
		residuals = append(residuals, sm.got.residual)
		pairs += sm.got.counts.Pairs
		contacts += sm.got.counts.Contacts
		islands += sm.got.counts.Islands
		rows += sm.got.counts.Rows
		verts += sm.got.counts.ClothVerts
		maxRows = max(maxRows, sm.got.counts.MaxRows)
	}

	res.set("broadphase.sap_us", median(layers[spanSAP]))
	res.set("broadphase.incsap_us", median(layers[spanIncSAP]))
	res.set("broadphase.hash_us", median(layers[spanHash]))
	res.set("broadphase.pairs", float64(pairs))
	res.set("broadphase.incsap_sort_ops", float64(sum.incsapSort))
	res.set("narrowphase.collide_us", median(layers[spanCollide]))
	res.set("narrowphase.ns_per_pair", ratio(float64(collideNs), float64(sum.pairsTested)))
	res.set("narrowphase.contacts", float64(contacts))
	res.set("narrowphase.hit_ratio", ratio(float64(sum.pairsHit), float64(sum.pairsTested)))
	res.set("island.build_us", median(layers[spanIsland]))
	res.set("island.count", float64(islands))
	res.set("island.max_rows", float64(maxRows))
	res.set("joint.rows_us", median(layers[spanRows]))
	res.set("solver.solve_us", median(layers[spanSolve]))
	res.set("solver.rows", float64(rows))
	res.set("solver.row_updates", float64(sum.rowUpdates))
	res.set("solver.ns_per_row_update", ratio(float64(solveNs), float64(sum.rowUpdates)))
	res.set("solver.residual", sample(residuals).mean())
	res.set("cloth.step_us", median(layers[spanCloth]))
	res.set("cloth.verts", float64(verts))
	res.set("cloth.ns_per_vert", ratio(float64(clothNs), float64(verts)))
	// What the step spends outside the layers: medians on both sides, since
	// one step's time from another episode is too noisy to subtract from.
	// The engine runs one broad phase, not all three.
	selfUs := median(stepUs)
	for _, name := range replayedLayers {
		if name != spanHash && name != spanIncSAP {
			selfUs -= median(layers[name])
		}
	}
	res.set("world.self_us", selfUs)
	return nil
}

var replayedLayers = []string{spanSAP, spanHash, spanIncSAP, spanCollide, spanIsland, spanRows, spanSolve, spanCloth}

// ratio is a/b, and 0 when the scene has none of b (no cloth, no pairs).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probeArch times the architecture model's layers on a capture of the
// scene: the capture itself, the memory simulation, the raw cache and core
// loops on seeded streams, and the full-system evaluation.
func probeArch(cfg sceneCfg, seed int64, res *result, log *spanLog) error {
	w, err := buildScene(cfg, seed)
	if err != nil {
		return err
	}
	var wk *parallax.Workload
	res.set("arch.capture_ms", float64(log.span("arch.capture", func() {
		wk = parallax.Capture(cfg.Name, w, 1, 3)
	}))/1e6)

	var mem parallax.MemResult
	memNs := log.span("arch.memsim", func() {
		mem = wk.SimulateMemory(parallax.MemConfig{Cores: 4, L2MB: 12, Partitioned: true, Threads: 4, DedicatedPhase: -1})
	})
	accesses := uint64(0)
	for _, ph := range mem.Phase {
		accesses += ph.Accesses
	}
	res.check(accesses > 0, "%s: memory simulation modelled no accesses", cfg.Name)
	res.set("arch.memsim_ms", float64(memNs)/1e6)
	res.set("arch.memsim_ns_per_access", ratio(float64(memNs), float64(accesses)))
	res.addExtra("arch.memsim_accesses", float64(accesses), "count", "modelled references in one frame")

	// Cache loop: a seeded uniform stream over 4x the modelled 12 MB L2,
	// so the working set cannot sit in the model's cache (or the host's).
	const l2MB, streamLen = 12, 1 << 21
	r := rand.New(rand.NewSource(seed))
	addrs := make([]uint64, streamLen)
	for i := range addrs {
		addrs[i] = uint64(r.Int63n(4*l2MB<<20)) &^ 63
	}
	h := cache.NewHierarchy(1, l2MB)
	cycles := 0
	cacheNs := log.span("arch.cache", func() {
		for i, a := range addrs {
			cycles += h.Access(0, a, i&7 == 0, -1)
		}
	})
	res.check(cycles > 0 && h.L2Misses() > 0, "cache model reported %d cycles, %d L2 misses on a stream 4x its size", cycles, h.L2Misses())
	res.set("arch.cache_ns_per_access", float64(cacheNs)/streamLen)

	// Core loop: the island-processing kernel on the coarse-grain core.
	instrs := kernels.Island.Trace(2000, seed)
	var run cpu.Result
	cpuNs := log.span("arch.cpu", func() { run = cpu.New(cpu.CGCore).Run(instrs) })
	res.check(run.Instructions == uint64(len(instrs)) && run.Cycles > 0,
		"core model retired %d of %d instructions in %d cycles", run.Instructions, len(instrs), run.Cycles)
	res.set("arch.cpu_minstr_per_s", float64(len(instrs))/(float64(cpuNs)/1e9)/1e6)

	var bd parallax.Breakdown
	res.set("arch.evaluate_ms", float64(log.span("arch.evaluate", func() {
		bd = wk.Evaluate(parallax.Reference())
	}))/1e6)
	res.check(bd.Total() > 0 && bd.Total() < 3600, "%s: full-system model gave a frame time of %v s", cfg.Name, bd.Total())
	return nil
}
