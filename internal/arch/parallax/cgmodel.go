package parallax

import (
	"github.com/parallax-arch/parallax/internal/arch/cpu"
	"github.com/parallax-arch/parallax/internal/arch/kernels"
)

// ClockHz is the common 2GHz clock (Table 5).
const ClockHz = 2e9

// FrameBudget is one 30 FPS frame in seconds.
const FrameBudget = 1.0 / 30.0

// CGResult is the frame-time breakdown of a conventional CMP (CG cores
// + shared/partitioned L2) running the whole workload — the
// configuration space of section 6.
type CGResult struct {
	// PhaseTime is seconds per frame per phase.
	PhaseTime kernels.PerPhase
}

// Total returns the frame time.
func (r CGResult) Total() float64 { return r.PhaseTime.Total() }

// Serial returns the serial phases' time.
func (r CGResult) Serial() float64 { return r.PhaseTime.Serial() }

// FPS returns the achieved frame rate.
func (r CGResult) FPS() float64 {
	t := r.Total()
	if t <= 0 {
		return 0
	}
	return 1 / t
}

// syncCyclesPerStep is the per-phase barrier/queue overhead per worker
// thread per step (thread wake-up, work-queue locking).
const syncCyclesPerStep = 6000

// MemMLP is the memory-level parallelism of the out-of-order CG core:
// its 32-entry window keeps several misses in flight, so the effective
// stall per miss is the full latency divided by this overlap factor.
const MemMLP = 4.0

// CGFrameTime evaluates the frame on a conventional CG-only machine.
func (wl *Workload) CGFrameTime(cfg MemConfig) CGResult {
	cfg = cfg.normalized()
	var res CGResult
	instr := wl.FrameInstr()
	mem := wl.SimulateMemory(cfg)
	ipcs := wl.KernelIPC(cpu.CGCore)
	steps := float64(len(wl.Frame.Steps))
	critical := wl.criticalShares()

	for ph := range kernels.NumKernels {
		ipc := ipcs[ph]
		if ipc <= 0 {
			continue
		}
		compute := instr[ph] / ipc // cycles
		stall := mem.Phase[ph].StallCycles / MemMLP
		t := float64(cfg.Threads)

		var cycles float64
		switch {
		case ph.Serial():
			cycles = compute + stall
		default:
			// Parallelizable: the phase divides across threads but no
			// better than its largest single task chain allows.
			share := max(1/t, critical[ph])
			cycles = compute*share + stall/t
			if t > 1 {
				cycles += syncCyclesPerStep * t * steps
			}
		}
		res.PhaseTime[ph] = cycles / ClockHz
	}
	return res
}

// criticalShares returns, per parallel phase, the coarse-grain
// critical path as a share of the phase's work: largest task chain ÷
// tasks per step (section 6.2: "CG performance scaling is bounded by
// the largest island and cloth"; a narrow-phase chain is one pair). The
// largest chain is taken over all the frame's steps and the task count
// is a per-step mean, so the ratio exceeds 1 when task sizes vary
// between steps; no chain is longer than its whole phase, so the share
// is clamped at 1. A phase without tasks has share 0.
func (wl *Workload) criticalShares() (share kernels.PerPhase) {
	pairs, islandDOF, clothVerts := wl.AvailableFGTasks()
	chain := func(largest, perStep float64) float64 {
		if perStep <= 0 {
			return 0
		}
		return min(largest/perStep, 1)
	}
	share[kernels.Narrow] = chain(1, pairs)
	share[kernels.Island] = chain(float64(wl.LargestIslandDOF()), islandDOF)
	share[kernels.Cloth] = chain(float64(wl.LargestClothVerts()), clothVerts)
	return share
}

// CGOnly is the convenience wrapper for section 6's experiments: cores
// CG cores, l2MB of L2, optional partitioning, threads = cores.
func (wl *Workload) CGOnly(cores, l2MB int, partitioned bool) CGResult {
	return wl.CGFrameTime(MemConfig{
		Cores: cores, L2MB: l2MB, Partitioned: partitioned, Threads: cores,
		DedicatedPhase: -1,
	})
}

// IdealCGLimit returns the phase times under the idealized assumptions
// of Fig 7a: no OS overhead, no cache contention, unlimited cores and
// ideal load balancing — only the largest island / cloth chain bounds
// Island Processing and Cloth.
func (wl *Workload) IdealCGLimit() (islandProc, clothTime float64) {
	instr := wl.FrameInstr()
	ipcs := wl.KernelIPC(cpu.CGCore)
	critical := wl.criticalShares()
	islandProc = instr[kernels.Island] / ipcs[kernels.Island] * critical[kernels.Island] / ClockHz
	clothTime = instr[kernels.Cloth] / ipcs[kernels.Cloth] * critical[kernels.Cloth] / ClockHz
	return islandProc, clothTime
}
