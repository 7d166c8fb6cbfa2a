package parallax

import (
	"math"

	"github.com/parallax-arch/parallax/internal/arch/cpu"
	"github.com/parallax-arch/parallax/internal/arch/kernels"
	"github.com/parallax-arch/parallax/internal/arch/link"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// FGResult is the fine-grain pool's execution of the parallel kernels.
type FGResult struct {
	// ComputeTime is the pure FG execution time per frame.
	ComputeTime float64
	// CommTime is the exposed (non-overlapped) communication, including
	// the per-phase startup and post-process costs.
	CommTime float64
	// PerPhase is the FG time per parallel phase.
	PerPhase [world.NumPhases]float64
	// BufferTasks is the worst-case per-core buffering requirement.
	BufferTasks int
	// BufferBytes is the local-store requirement for that buffering.
	BufferBytes int
	// WorkLost is the fraction of FG work filtered back to CG cores
	// because islands/cloths were too small to hide the interconnect
	// latency (section 8.2.2).
	WorkLost float64
}

// Total returns compute + exposed communication.
func (r FGResult) Total() float64 { return r.ComputeTime + r.CommTime }

// fgPhases lists the phases with farmable FG kernels.
var fgPhases = []world.Phase{world.PhaseNarrow, world.PhaseIslandProc, world.PhaseCloth}

// taskGrain returns, for a phase's kernel on a core of the given IPC:
// the per-task compute time, the total task count per frame, and the
// concurrently available tasks per scheduling round. A task is "an
// independent inner iteration of a multiply-nested for loop" (section
// 7): one object-pair test, one LCP row update within one solver sweep,
// or one cloth vertex update within one relaxation sweep — so the
// iterative phases issue DOF (or vertex-count) concurrent tasks per
// sweep, with iters sweeps per step.
func (wl *Workload) taskGrain(ph world.Phase, ipc float64) (taskSec, total, avail float64) {
	instr := wl.FrameInstr()
	pairs, islandDOF, clothVerts := wl.AvailableFGTasks()
	steps := float64(len(wl.Frame.Steps))
	iters := float64(wl.World.Solver.Iterations)
	if iters < 1 {
		iters = 1
	}
	switch ph {
	case world.PhaseNarrow:
		total, avail = pairs*steps, pairs
	case world.PhaseIslandProc:
		total, avail = islandDOF*iters*steps, islandDOF
	case world.PhaseCloth:
		total, avail = clothVerts*iters*steps, clothVerts
	}
	if total <= 0 {
		return 0, 0, 0
	}
	fgInstr := instr[ph] * kernels.FGShare(ph)
	taskSec = fgInstr / total / ipc / ClockHz
	return taskSec, total, avail
}

// KernelPhase maps an FG kernel back to its engine phase.
func KernelPhase(k kernels.Kernel) world.Phase {
	switch k {
	case kernels.Island:
		return world.PhaseIslandProc
	case kernels.Cloth:
		return world.PhaseCloth
	default:
		return world.PhaseNarrow
	}
}

// TaskTime returns one FG task's compute time for kernel k at the given
// IPC (used by the Table 7 buffering analysis).
func (wl *Workload) TaskTime(k kernels.Kernel, ipc float64) float64 {
	t, _, _ := wl.taskGrain(KernelPhase(k), ipc)
	return t
}

// FGTime evaluates the fine-grain portion of the frame on nFG cores of
// the given type over the given interconnect, assuming the CG side can
// keep the task queues full.
func (wl *Workload) FGTime(fg cpu.Config, nFG int, lk link.Kind) FGResult {
	return wl.FGTimeSharedLocal(fg, nFG, lk, 1)
}

// sharedOverlap is the fraction of a task's input data that sibling
// tasks of the same coarse task reuse: LCP rows of one island share the
// island's body state, narrow-phase pairs share geom data, and cloth
// vertices share their neighbours' positions.
func sharedOverlap(k kernels.Kernel) float64 {
	switch k {
	case kernels.Island:
		return 0.6
	case kernels.Cloth:
		return 0.5
	default:
		return 0.3
	}
}

// FGTimeSharedLocal is the paper's future-work extension (section
// 8.2.2): clusters of `cluster` FG cores share a local memory, so data
// common to sibling tasks crosses the interconnect once per cluster
// instead of once per core. cluster = 1 reproduces the baseline design.
func (wl *Workload) FGTimeSharedLocal(fg cpu.Config, nFG int, lk link.Kind, cluster int) FGResult {
	obsStart := wl.obs.tr.Now()
	var res FGResult
	if nFG < 1 {
		return res
	}
	if cluster < 1 {
		cluster = 1
	}
	ipcs := wl.KernelIPC(fg)
	lc := link.For(lk)
	instr := wl.FrameInstr()
	steps := float64(len(wl.Frame.Steps))

	for _, ph := range fgPhases {
		k := PhaseKernel(ph)
		ipc := ipcs[k]
		if ipc <= 0 {
			continue
		}
		fgInstr := instr[ph] * kernels.FGShare(ph)
		if fgInstr <= 0 {
			continue
		}
		taskSec, total, avail := wl.taskGrain(ph, ipc)
		if total <= 0 {
			continue
		}
		compute := fgInstr / ipc / float64(nFG) / ClockHz

		// Shared local memory: the overlapping fraction of input data is
		// fetched once per cluster.
		effIn := float64(k.DataIn())
		if cluster > 1 {
			ov := sharedOverlap(k)
			effIn *= 1 - ov*(1-1/float64(cluster))
		}
		inBytes := int(effIn)

		// Buffering needed per core to overlap communication (section
		// 7.2); the pool needs nFG x that many tasks in flight.
		need := lc.TasksToHide(taskSec, inBytes, k.DataOut())
		if need > res.BufferTasks {
			res.BufferTasks = need
			res.BufferBytes = link.BufferBytes(need, inBytes)
		}
		required := float64(need * nFG)

		comm := 0.0
		if avail < required {
			// Not enough concurrent tasks to hide the latency: the
			// uncovered fraction of each task's round trip is exposed.
			uncovered := 1 - avail/required
			perTask := lc.RoundTrip(inBytes, k.DataOut()) * uncovered
			comm += perTask * total / float64(nFG)
		}
		// Startup and post-process cost per phase per step (always paid).
		comm += steps * lc.RoundTrip(inBytes, k.DataOut())

		res.PerPhase[ph] = compute + comm
		res.ComputeTime += compute
		res.CommTime += comm
	}
	// Link occupancy: modeled FG compute vs exposed communication time,
	// in integer nanoseconds so concurrent accumulation stays
	// deterministic.
	if r := wl.obs.reg; r != nil {
		r.Add(wl.obs.linkComputeNs, int64(res.ComputeTime*1e9))
		r.Add(wl.obs.linkCommNs, int64(res.CommTime*1e9))
	}
	wl.obs.lane.Complete(wl.obs.fgSpan, obsStart)
	return res
}

// FilteredFGTime is the section 8.2.2 variant: islands (and cloths)
// with fewer than minTasks FG tasks are filtered out — executed on the
// CG cores instead — so the remaining tasks can hide the interconnect
// latency. It returns the FG result plus the fraction of island-phase
// work filtered back.
func (wl *Workload) FilteredFGTime(fg cpu.Config, nFG int, lk link.Kind, minTasks int) (FGResult, float64) {
	res := wl.FGTime(fg, nFG, lk)
	dofs := wl.IslandDOFsSorted()
	total, kept := 0.0, 0.0
	for _, d := range dofs {
		total += float64(d)
		if d >= minTasks {
			kept += float64(d)
		}
	}
	lost := 0.0
	if total > 0 {
		lost = 1 - kept/total
	}
	res.WorkLost = lost
	// The filtered work leaves the FG pool: compute shrinks, and the
	// remaining tasks (all large) hide the latency.
	res.PerPhase[world.PhaseIslandProc] *= (1 - lost)
	res.ComputeTime *= (1 - lost*0.5) // island share only; conservative
	return res, lost
}

// FGCoresFor30FPS returns the minimum number of FG cores of the given
// type needed to complete the frame's FG work within budgetFrac of a
// 30 FPS frame over the given interconnect (Fig 10b).
func (wl *Workload) FGCoresFor30FPS(fg cpu.Config, budgetFrac float64, lk link.Kind) int {
	budget := budgetFrac * FrameBudget
	lo, hi := 1, 1<<14
	r := wl.FGTime(fg, hi, lk)
	if r.Total() > budget {
		return hi
	}
	for lo < hi {
		mid := (lo + hi) / 2
		r = wl.FGTime(fg, mid, lk)
		if r.Total() <= budget {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// IdealFGCores is the closed-form requirement assuming 100% utilization
// and fully hidden communication: instrs / (IPC x clock x budget).
func (wl *Workload) IdealFGCores(fg cpu.Config, budgetFrac float64) int {
	ipcs := wl.KernelIPC(fg)
	instr := wl.FrameInstr()
	budget := budgetFrac * FrameBudget
	cycles := 0.0
	for _, ph := range fgPhases {
		cycles += instr[ph] * kernels.FGShare(ph) / ipcs[PhaseKernel(ph)]
	}
	return int(math.Ceil(cycles / ClockHz / budget))
}
