package parallax

import (
	"github.com/parallax-arch/parallax/internal/arch/cpu"
	"github.com/parallax-arch/parallax/internal/arch/kernels"
	"github.com/parallax-arch/parallax/internal/phys/world"
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
	PhaseTime [world.NumPhases]float64
	// Mem is the underlying cache simulation.
	Mem MemResult
	// Instr is the frame's per-phase instruction counts.
	Instr kernels.PhaseInstr
}

// Total returns the frame time.
func (r CGResult) Total() float64 {
	t := 0.0
	for _, v := range r.PhaseTime {
		t += v
	}
	return t
}

// Serial returns the serial phases' time.
func (r CGResult) Serial() float64 {
	return r.PhaseTime[world.PhaseBroad] + r.PhaseTime[world.PhaseIslandGen]
}

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
	res.Instr = wl.FrameInstr()
	res.Mem = wl.SimulateMemory(cfg)
	ipcs := wl.KernelIPC(cpu.CGCore)
	steps := float64(len(wl.Frame.Steps))

	// Coarse-grain parallel critical-path bounds (section 6.2: "CG
	// performance scaling is bounded by the largest island and cloth").
	pairs, islandDOF, clothVerts := wl.AvailableFGTasks()
	largestIsland := float64(wl.LargestIslandDOF())
	largestCloth := float64(wl.LargestClothVerts())

	for ph := world.Phase(0); ph < world.NumPhases; ph++ {
		ipc := ipcs[PhaseKernel(ph)]
		if ipc <= 0 {
			continue
		}
		compute := res.Instr[ph] / ipc // cycles
		stall := res.Mem.Phase[ph].StallCycles / MemMLP
		t := float64(cfg.Threads)

		var cycles float64
		switch {
		case ph.Serial():
			cycles = compute + stall
		default:
			// Parallelizable: the phase divides across threads but no
			// better than its largest single task chain allows.
			share := 1 / t
			switch ph {
			case world.PhaseIslandProc:
				if islandDOF > 0 {
					if s := largestIsland / islandDOF; s > share {
						share = s
					}
				}
			case world.PhaseCloth:
				if clothVerts > 0 {
					if s := largestCloth / clothVerts; s > share {
						share = s
					}
				}
			case world.PhaseNarrow:
				if pairs > 0 {
					if s := 1 / pairs; s > share {
						share = s
					}
				}
			}
			cycles = compute*share + stall/t
			if t > 1 {
				cycles += syncCyclesPerStep * t * steps
			}
		}
		res.PhaseTime[ph] = cycles / ClockHz
	}
	return res
}

// CGOnly is the convenience wrapper for section 6's experiments: cores
// CG cores, l2MB of L2, optional partitioning, threads = cores.
func (wl *Workload) CGOnly(cores, l2MB int, partitioned bool) CGResult {
	return wl.CGFrameTime(MemConfig{
		Cores: cores, L2MB: l2MB, Partitioned: partitioned, Threads: cores,
		DedicatedPhase: -1,
	})
}

// DedicatedPhaseTime evaluates one phase with the entire L2 dedicated to
// it (Figs 3-5: per-phase working-set analysis via saved cache state).
func (wl *Workload) DedicatedPhaseTime(ph world.Phase, cores, l2MB int) float64 {
	cfg := MemConfig{Cores: cores, L2MB: l2MB, Threads: cores, DedicatedPhase: int(ph)}
	m := wl.SimulateMemory(cfg)
	instr := wl.FrameInstr()
	ipc := wl.KernelIPC(cpu.CGCore)[PhaseKernel(ph)]
	compute := instr[ph] / ipc
	stall := m.Phase[ph].StallCycles / MemMLP
	t := float64(cores)
	if ph.Serial() {
		return (compute + stall) / ClockHz
	}
	return (compute/t + stall/t) / ClockHz
}

// IdealCGLimit returns the phase times under the idealized assumptions
// of Fig 7a: no OS overhead, no cache contention, unlimited cores and
// ideal load balancing — only the largest island / cloth chain bounds
// Island Processing and Cloth.
func (wl *Workload) IdealCGLimit() (islandProc, clothTime float64) {
	instr := wl.FrameInstr()
	ipcs := wl.KernelIPC(cpu.CGCore)
	_, islandDOF, clothVerts := wl.AvailableFGTasks()
	if islandDOF > 0 {
		share := float64(wl.LargestIslandDOF()) / islandDOF
		islandProc = instr[world.PhaseIslandProc] / ipcs[kernels.Island] * share / ClockHz
	}
	if clothVerts > 0 {
		share := float64(wl.LargestClothVerts()) / clothVerts
		clothTime = instr[world.PhaseCloth] / ipcs[kernels.Cloth] * share / ClockHz
	}
	return islandProc, clothTime
}
