// Package parallax assembles the full ParallAX system model (paper
// sections 7-8): coarse-grain cores with an application-aware
// partitioned L2 execute the serial and coarse-grain-parallel phases of
// the physics pipeline, while a pool of fine-grain cores — flexibly
// arbitrated among the CG cores and connected on-chip or over
// HTX/PCIe — executes the fine-grain kernels. The model is trace-driven:
// the real Go physics engine runs each benchmark and the captured
// per-step profiles (work counters, pair lists, island structure) drive
// instruction-count, cache, core-timing and interconnect models.
package parallax

import (
	"sort"

	"github.com/parallax-arch/parallax/internal/arch/cpu"
	"github.com/parallax-arch/parallax/internal/arch/kernels"
	"github.com/parallax-arch/parallax/internal/arch/mem"
	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// Workload is one captured benchmark: the simulated world (for memory
// layout) plus the worst measured frame's step profiles (paper section
// 5: frames 5-7 are executed and the worst-case frame is chosen, after
// warm-up).
type Workload struct {
	Name   string
	World  *world.World
	Frame  world.FrameProfile
	Layout *mem.Layout

	// ipc memoizes KernelIPC by the full core configuration (cpu.Config
	// is a comparable value type), not just its name: two distinct
	// configs sharing a name — or both zero-named, as in custom sweeps —
	// must not collide. memsim memoizes SimulateMemory by the normalized
	// MemConfig; l1traces holds the L1-filtered miss trace every
	// simulation of one l1Class replays.
	ipc      memo[cpu.Config, [kernels.NumAllKernels]float64]
	memsim   memo[MemConfig, MemResult]
	l1traces memo[l1Class, *l1Trace]

	// obs holds the workload's observability hooks (SetObs); zero when
	// observability is off.
	obs wobs
}

// wobs carries the workload's tracer lane and pre-registered metric IDs
// for the architecture models. Model evaluations run concurrently from
// the harness worker pool, so spans go to a shared lane as Complete
// records (B/E nesting cannot be guaranteed across goroutines) and all
// metrics are commutative integer adds.
type wobs struct {
	tr   *obs.Tracer
	reg  *obs.Registry
	lane *obs.Lane

	memsimSpan  obs.SpanID
	l1traceSpan obs.SpanID
	fgSpan      obs.SpanID

	memsimRequests, memsimComputed                 obs.CounterID
	l1traceRequests, l1traceComputed, l1traceBytes obs.CounterID

	l1Hits, l1Misses          obs.CounterID
	l2Hits, l2Misses          obs.CounterID
	l2Writebacks, l2Invals    obs.CounterID
	linkComputeNs, linkCommNs obs.CounterID
}

// SetObs attaches an observability sink to the workload's architecture
// models: SimulateMemory counts its calls and the simulations they led
// to (memo hit rate = 1 - memsim_computed/memsim_requests; both are
// deterministic under singleflight — requests is the number of call
// sites executed, computed the number of distinct configurations), and
// each simulation records the cache hierarchy's hit/miss/writeback/
// invalidation totals (the L1s' from the trace it replayed, so they
// count once per simulation as they did when every simulation ran its
// own L1s) and a complete "memsim" span on the lane named label; the L1
// traces under it count the same way (l1trace_requests, one per
// simulation; l1trace_computed, one per class; l1trace_bytes retained)
// and record an "l1trace" span each; the FG interconnect model records
// its per-call compute and exposed-communication time (in integer
// nanoseconds, so the totals stay deterministic) and a "fg-model" span.
// Either argument may be nil.
func (wl *Workload) SetObs(tr *obs.Tracer, reg *obs.Registry, label string) {
	wl.obs = wobs{tr: tr, reg: reg}
	if tr != nil {
		wl.obs.lane = tr.Lane(label, obs.DefaultLaneEvents)
		wl.obs.memsimSpan = tr.Span("memsim")
		wl.obs.l1traceSpan = tr.Span("l1trace")
		wl.obs.fgSpan = tr.Span("fg-model")
	}
	if reg != nil {
		wl.obs.memsimRequests = reg.Counter("arch/memsim_requests")
		wl.obs.memsimComputed = reg.Counter("arch/memsim_computed")
		wl.obs.l1traceRequests = reg.Counter("arch/l1trace_requests")
		wl.obs.l1traceComputed = reg.Counter("arch/l1trace_computed")
		wl.obs.l1traceBytes = reg.Counter("arch/l1trace_bytes")
		wl.obs.l1Hits = reg.Counter("arch/cache/l1_hits")
		wl.obs.l1Misses = reg.Counter("arch/cache/l1_misses")
		wl.obs.l2Hits = reg.Counter("arch/cache/l2_hits")
		wl.obs.l2Misses = reg.Counter("arch/cache/l2_misses")
		wl.obs.l2Writebacks = reg.Counter("arch/cache/l2_writebacks")
		wl.obs.l2Invals = reg.Counter("arch/cache/l2_invalidations")
		wl.obs.linkComputeNs = reg.Counter("arch/link/compute_ns")
		wl.obs.linkCommNs = reg.Counter("arch/link/comm_ns")
	}
}

// Capture runs the benchmark world for warmFrames unrecorded frames,
// then measureFrames recorded frames, keeping the worst (most
// instructions) as the representative frame.
func Capture(name string, w *world.World, warmFrames, measureFrames int) *Workload {
	for i := 0; i < warmFrames; i++ {
		w.StepFrame()
	}
	w.RecordDetail = true
	var worst world.FrameProfile
	worstInstr := -1.0
	for i := 0; i < measureFrames; i++ {
		f := w.StepFrame()
		t := 0.0
		for si := range f.Steps {
			t += kernels.DefaultCost.InstrCounts(&f.Steps[si]).Total()
		}
		if t > worstInstr {
			worstInstr = t
			worst = f
		}
	}
	return &Workload{
		Name:   name,
		World:  w,
		Frame:  worst,
		Layout: mem.NewLayout(w),
	}
}

// FrameInstr returns the frame's per-phase dynamic instruction counts.
func (wl *Workload) FrameInstr() kernels.PhaseInstr {
	return kernels.DefaultCost.FrameInstr(&wl.Frame)
}

// KernelIPC returns (and caches) each kernel's IPC on the given core
// configuration — the three FG kernels plus the two serial-phase code
// models — measured by running synthetic kernel traces through the cpu
// timing model. Safe for concurrent use: each configuration's traces
// run exactly once even when requested from many goroutines.
func (wl *Workload) KernelIPC(cfg cpu.Config) [kernels.NumAllKernels]float64 {
	return wl.ipc.get(cfg, func() (v [kernels.NumAllKernels]float64) {
		for _, k := range []kernels.Kernel{
			kernels.Narrow, kernels.Island, kernels.Cloth,
			kernels.Broad, kernels.IslandGen,
		} {
			v[k] = cpu.New(cfg).Run(k.Trace(300, int64(k)+11)).IPC()
		}
		return v
	})
}

// PhaseKernel maps an engine phase to the kernel that models its code:
// the FG kernels for the parallel phases, the sweep/union-find models
// for the serial ones.
func PhaseKernel(ph world.Phase) kernels.Kernel {
	switch ph {
	case world.PhaseIslandProc:
		return kernels.Island
	case world.PhaseCloth:
		return kernels.Cloth
	case world.PhaseBroad:
		return kernels.Broad
	case world.PhaseIslandGen:
		return kernels.IslandGen
	default:
		return kernels.Narrow
	}
}

// AvailableFGTasks returns the frame's average per-step fine-grain task
// counts: object-pairs (Narrowphase), summed island DOFs (Island
// Processing) and cloth vertices (Cloth) — the data behind Fig 11.
func (wl *Workload) AvailableFGTasks() (pairs, islandDOF, clothVerts float64) {
	n := float64(len(wl.Frame.Steps))
	if n == 0 {
		return 0, 0, 0
	}
	for i := range wl.Frame.Steps {
		s := &wl.Frame.Steps[i]
		pairs += float64(s.Pairs)
		for _, is := range s.Islands {
			islandDOF += float64(is.DOF)
		}
		for _, v := range s.ClothVerts {
			clothVerts += float64(v)
		}
	}
	return pairs / n, islandDOF / n, clothVerts / n
}

// LargestIslandDOF returns the frame's maximum island size in DOF — the
// bound on coarse-grain scaling of Island Processing.
func (wl *Workload) LargestIslandDOF() int {
	m := 0
	for i := range wl.Frame.Steps {
		for _, is := range wl.Frame.Steps[i].Islands {
			if is.DOF > m {
				m = is.DOF
			}
		}
	}
	return m
}

// LargestClothVerts returns the biggest cloth's vertex count.
func (wl *Workload) LargestClothVerts() int {
	m := 0
	for i := range wl.Frame.Steps {
		for _, v := range wl.Frame.Steps[i].ClothVerts {
			if v > m {
				m = v
			}
		}
	}
	return m
}

// IslandDOFsSorted returns all per-step island DOF counts, descending,
// for the filtering analysis of section 8.2.2.
func (wl *Workload) IslandDOFsSorted() []int {
	var out []int
	for i := range wl.Frame.Steps {
		out = wl.Frame.Steps[i].AppendIslandDOFs(out)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
