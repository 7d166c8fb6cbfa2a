package parallax

import (
	"fmt"
	"sync"
	"testing"
	"time"

	archpx "github.com/parallax-arch/parallax/internal/arch/parallax"
	"github.com/parallax-arch/parallax/internal/exp"
	"github.com/parallax-arch/parallax/internal/phys/workload"
	"github.com/parallax-arch/parallax/internal/serve"
)

// benchScale is the paper's workload scale, which the benchmarks here
// build their scenes and suite at. The experiment sweep itself is timed
// by bench/'s harness-sweep workload, and its output is pinned by
// internal/exp's TestPaperScaleOutput.
const benchScale = 1.0

var (
	suiteOnce sync.Once
	suite     *exp.Suite
)

func sharedSuite(b *testing.B) *exp.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite = exp.NewSuite(benchScale)
	})
	return suite
}

// BenchmarkSuiteCapture measures the harness's capture stage: building
// and simulating the full 8-benchmark suite (1 warm + 3 measured frames
// each) at a reduced scale. The suite is rebuilt every iteration —
// Workloads() forces all captures through the concurrent per-benchmark
// path, so this tracks both engine speed and capture parallelism.
func BenchmarkSuiteCapture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(0.25)
		if got := len(s.Workloads()); got != len(workload.All) {
			b.Fatalf("captured %d workloads, want %d", got, len(workload.All))
		}
	}
}

// cgOnlyEvals numbers BenchmarkCGOnly's evaluations across all of its
// invocations: the testing package calls a benchmark several times
// (b.N = 1 first) over the same shared suite.
var cgOnlyEvals int

// BenchmarkCGOnly measures one uncached CG-machine evaluation (cache
// simulation + timing model) on the Mix workload — the unit of work the
// experiment worker pool fans out. The workload memoises its memory
// simulations by MemConfig, so every evaluation asks for the 4-core 12MB
// partitioned machine under a different negative DedicatedPhase: all of
// them mean "no dedicated phase", none of them has been simulated yet.
func BenchmarkCGOnly(b *testing.B) {
	s := sharedSuite(b)
	var wl *Workload
	for _, w := range s.Workloads() {
		if w.Name == "Mix" {
			wl = w
		}
	}
	if wl == nil {
		b.Fatal("Mix workload missing")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cgOnlyEvals++
		r := wl.CGFrameTime(archpx.MemConfig{
			Cores: 4, L2MB: 12, Partitioned: true, Threads: 4, DedicatedPhase: -cgOnlyEvals,
		})
		if r.Total() <= 0 {
			b.Fatal("degenerate CG result")
		}
	}
}

// wallRubbleWorld builds the mid-size wall/rubble scene used to measure
// steady-state stepping (workload.BuildWallRubble): at steady state
// every step exercises broad phase, narrow phase, island creation and
// island processing with a stable contact topology.
func wallRubbleWorld(threads int, warmStart bool) *World {
	w := workload.BuildWallRubble()
	w.SetThreads(threads)
	w.WarmStart = warmStart
	return w
}

// BenchmarkStep measures one steady-state Step on the wall/rubble
// scene; ReportAllocs makes allocs/op the tracked regression metric
// (the hot loop must not churn the GC — the engine is both the workload
// and the profiler feeding the architecture model). The traced variants
// run with the span tracer and metrics registry attached: the
// observability layer's contract is that recording costs ring-buffer
// writes and atomic adds only, so allocs/op must stay 0 there too. The
// wall/rubble scene has no joints; the scene=Ragdoll variants put the
// joint-row assembly and the jointed solve under the same alloc gate.
func BenchmarkStep(b *testing.B) {
	for _, cfg := range []struct {
		name     string
		threads  int
		warm     bool
		traced   bool
		recorded bool
		ragdoll  bool
	}{
		{"threads=1", 1, false, false, false, false},
		{"threads=4", 4, false, false, false, false},
		{"threads=1/warmstart", 1, true, false, false, false},
		{"threads=1/traced", 1, false, true, false, false},
		{"threads=4/traced", 4, false, true, false, false},
		{"threads=1/recorded", 1, false, true, true, false},
		{"threads=4/recorded", 4, false, true, true, false},
		{"scene=Ragdoll/threads=1", 1, false, false, false, true},
		{"scene=Ragdoll/threads=4", 4, false, false, false, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var w *World
			if cfg.ragdoll {
				w = workload.BuildRagdoll(benchScale)
				w.SetThreads(cfg.threads)
			} else {
				w = wallRubbleWorld(cfg.threads, cfg.warm)
			}
			if cfg.traced {
				w.SetObs(NewTracer(), NewMetrics(), "bench")
			}
			if cfg.recorded {
				// The full flight-recorder stack: series rings staged and
				// committed every step, plus the anomaly detector's
				// windowed checks. Same contract as tracing: 0 allocs/op.
				w.SetSeries(NewSeries(512))
				w.SetHealth(NewHealth())
			}
			for i := 0; i < 120; i++ { // settle into steady state
				w.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Step()
			}
		})
	}
}

// BenchmarkStepServe measures one shard tick of the serving layer: the
// scheduler walking its resident sessions and stepping each world, plus
// the metric publication the shard goroutine performs per tick. The
// name shares BenchmarkStep's prefix deliberately — the CI allocs gate
// matches ^BenchmarkStep, so the serving hot path inherits the same
// 0 allocs/op contract as the engine step. The budget=1ns variant
// forces a deadline miss on every session each tick (evictions held
// off) so the miss accounting and degrade state machine are measured
// too, not just the happy path.
func BenchmarkStepServe(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		budget time.Duration
	}{
		{"sessions=8", 0},
		{"sessions=8/deadline-miss", time.Nanosecond},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			worlds := make([]*World, 8)
			for i := range worlds {
				worlds[i] = wallRubbleWorld(1, false)
				for s := 0; s < 120; s++ { // settle into steady state
					worlds[i].Step()
				}
			}
			sb := serve.NewShardBench(NewMetrics(), cfg.budget, false, worlds...)
			sb.Tick() // warm the scheduler
			if got := sb.Sessions(); got != len(worlds) {
				b.Fatalf("%d resident sessions, want %d", got, len(worlds))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sb.Tick()
			}
		})
	}
}

// BenchmarkEngine measures the raw physics engine: one full frame
// (3 steps) of each benchmark at paper scale, single-threaded and with
// 4 worker threads.
func BenchmarkEngine(b *testing.B) {
	for _, bench := range workload.All {
		for _, threads := range []int{1, 4} {
			bench, threads := bench, threads
			b.Run(fmt.Sprintf("%s/threads=%d", bench.Name, threads), func(b *testing.B) {
				w := bench.Build(benchScale)
				w.SetThreads(threads)
				w.StepFrame() // warm
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.StepFrame()
				}
			})
		}
	}
}
