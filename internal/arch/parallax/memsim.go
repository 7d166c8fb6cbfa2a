package parallax

import (
	"github.com/parallax-arch/parallax/internal/arch/cache"
	"github.com/parallax-arch/parallax/internal/arch/mem"
	archos "github.com/parallax-arch/parallax/internal/arch/os"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// Partition ids for the application-aware L2 management (section 6.1):
// one dedicated partition per serial phase plus one shared partition for
// the parallel phases.
const (
	PartBroad     = 0
	PartIslandGen = 1
	PartParallel  = 2
)

// MemConfig selects the cache organization for a frame simulation.
type MemConfig struct {
	// Cores is the number of CG cores (each gets an L1; parallel-phase
	// accesses are spread across them).
	Cores int
	// L2MB is the shared L2 capacity in 1MB 4-way banks.
	L2MB int
	// Partitioned enables the paper's bank partitioning: a third of the
	// 1MB banks each dedicated to Broadphase and to Island Creation, the
	// rest to the parallel phases (4MB + 4MB + 4MB in the 12MB
	// configuration).
	Partitioned bool
	// Threads is the worker-thread count for the parallel phases; more
	// than 4 triggers the measured OS per-thread memory inflation.
	Threads int
	// DedicatedPhase, when >= 0, simulates only that phase's stream with
	// the whole L2 dedicated to it (the working-set experiments of Figs
	// 3-5 save and restore per-phase cache state; dedicating the cache
	// to one phase is equivalent).
	DedicatedPhase int
	// PrefetchDepth enables a next-N-line L2 prefetcher (the paper's
	// future-work direction for reducing L2 size requirements).
	PrefetchDepth int
}

// PhaseMem reports one phase's memory behaviour over the frame.
type PhaseMem struct {
	Accesses       uint64
	L1Misses       uint64
	L2Misses       uint64
	KernelL2Misses uint64
	// StallCycles is the aggregate memory stall contribution.
	StallCycles float64
}

// MemResult is the frame's per-phase memory behaviour.
type MemResult struct {
	Phase [world.NumPhases]PhaseMem
}

// TotalL2Misses sums L2 misses over phases.
func (m MemResult) TotalL2Misses() (user, kernel uint64) {
	for _, p := range m.Phase {
		user += p.L2Misses - p.KernelL2Misses
		kernel += p.KernelL2Misses
	}
	return user, kernel
}

// normalized applies MemConfig's defaults: at least one core, and one
// thread per core unless told otherwise.
func (cfg MemConfig) normalized() MemConfig {
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	if cfg.Threads < 1 {
		cfg.Threads = cfg.Cores
	}
	return cfg
}

// SimulateMemory replays the frame's per-phase reference streams
// through an L1/L2 hierarchy and returns per-phase miss counts and
// stall cycles. The solver's and cloth's iterative sweeps are sampled
// (cold + steady) and scaled by the iteration count. The result is a
// pure function of the (read-only) workload and cfg, so each distinct
// normalized configuration is simulated once per workload; it is safe
// for concurrent use.
func (wl *Workload) SimulateMemory(cfg MemConfig) MemResult {
	cfg = cfg.normalized()
	wl.obs.reg.Add(wl.obs.memsimRequests, 1)
	return wl.memsim.get(cfg, func() MemResult {
		wl.obs.reg.Add(wl.obs.memsimComputed, 1)
		return wl.simulateMemory(cfg)
	})
}

// simulateMemory is the uncached simulation behind SimulateMemory; cfg
// is already normalized.
func (wl *Workload) simulateMemory(cfg MemConfig) MemResult {
	obsStart := wl.obs.tr.Now()
	h := cache.NewHierarchy(max(cfg.Cores, cfg.Threads), cfg.L2MB)
	h.L2.Prefetch = cfg.PrefetchDepth
	if cfg.Partitioned {
		// The paper's 12MB organization: three 4MB partitions of whole
		// 1MB banks — one for Broadphase, one for Island Creation, the
		// rest for the parallel phases. Smaller L2s split by thirds.
		nb := cfg.L2MB
		per := nb / 3
		if per < 1 {
			per = 1
		}
		var broadB, genB, parB []int
		for b := 0; b < nb; b++ {
			switch {
			case b < per:
				broadB = append(broadB, b)
			case b < 2*per:
				genB = append(genB, b)
			default:
				parB = append(parB, b)
			}
		}
		if len(parB) == 0 {
			parB = genB
		}
		h.L2.PartitionBanks(PartBroad, broadB)
		h.L2.PartitionBanks(PartIslandGen, genB)
		h.L2.PartitionBanks(PartParallel, parB)
	}

	var res MemResult
	iters := wl.World.Solver.Iterations
	if iters < 1 {
		iters = 1
	}

	// account wraps a stream emission, attributing misses and stalls to
	// a phase. Parallel-phase accesses round-robin across cores' L1s.
	account := func(ph world.Phase, parallel bool, kernelRegion bool, emit func(mem.Stream)) {
		pm := &res.Phase[ph]
		part := -1
		if cfg.Partitioned {
			switch ph {
			case world.PhaseBroad:
				part = PartBroad
			case world.PhaseIslandGen:
				part = PartIslandGen
			default:
				part = PartParallel
			}
		}
		if cfg.DedicatedPhase >= 0 {
			part = -1 // dedicated experiments use the whole cache
		}
		var idx uint64
		emit(func(addr uint64, write bool) {
			core := 0
			if parallel {
				core = int(idx % uint64(cfg.Threads))
			}
			idx++
			lat := h.Access(core, addr, write, part)
			pm.Accesses++
			if lat > 2 {
				pm.L1Misses++
			}
			if lat > 17 {
				pm.L2Misses++
				if kernelRegion {
					pm.KernelL2Misses++
				}
			}
			pm.StallCycles += float64(lat - 2)
		})
	}

	want := func(ph world.Phase) bool {
		return cfg.DedicatedPhase < 0 || world.Phase(cfg.DedicatedPhase) == ph
	}

	// The paper's dedicated-cache experiments save the phase's cache
	// state at the end of a step and reload it at the start of the next,
	// so the measured steps see warm state. Replay the phase's streams
	// once unaccounted to reproduce that warm start.
	if cfg.DedicatedPhase >= 0 {
		sink := func(addr uint64, write bool) {
			h.Access(0, addr, write, -1)
		}
		for si := range wl.Frame.Steps {
			prof := &wl.Frame.Steps[si]
			switch world.Phase(cfg.DedicatedPhase) {
			case world.PhaseBroad:
				wl.Layout.BroadphaseTrace(wl.World, prof, sink)
			case world.PhaseNarrow:
				wl.Layout.NarrowphaseTrace(wl.World, prof, sink)
			case world.PhaseIslandGen:
				wl.Layout.IslandCreationTrace(wl.World, prof, sink)
			case world.PhaseIslandProc:
				wl.Layout.IslandSweep(wl.World, prof, sink)
			case world.PhaseCloth:
				wl.Layout.ClothSweep(wl.World, prof, sink)
			}
		}
	}

	for si := range wl.Frame.Steps {
		prof := &wl.Frame.Steps[si]
		if want(world.PhaseBroad) {
			account(world.PhaseBroad, false, false, func(s mem.Stream) {
				wl.Layout.BroadphaseTrace(wl.World, prof, s)
			})
		}
		if want(world.PhaseNarrow) {
			account(world.PhaseNarrow, true, false, func(s mem.Stream) {
				wl.Layout.NarrowphaseTrace(wl.World, prof, s)
			})
		}
		if want(world.PhaseIslandGen) {
			account(world.PhaseIslandGen, false, false, func(s mem.Stream) {
				wl.Layout.IslandCreationTrace(wl.World, prof, s)
			})
		}
		if want(world.PhaseIslandProc) {
			// Row construction streams once; the iterated working set is
			// the bodies, sampled once and scaled by (iters-1).
			account(world.PhaseIslandProc, true, false, func(s mem.Stream) {
				wl.Layout.IslandSweep(wl.World, prof, s)
			})
			pm := &res.Phase[world.PhaseIslandProc]
			before := *pm
			account(world.PhaseIslandProc, true, false, func(s mem.Stream) {
				wl.Layout.IslandSweepSteady(wl.World, prof, s)
			})
			scaleSteady(pm, before, iters-1)
			// OS/kernel overhead of the worker threads.
			account(world.PhaseIslandProc, true, true, func(s mem.Stream) {
				archos.KernelStream(cfg.Threads, mem.ThreadBase, s)
			})
		}
		if want(world.PhaseCloth) && len(wl.Layout.ClothBase) > 0 {
			account(world.PhaseCloth, true, false, func(s mem.Stream) {
				wl.Layout.ClothSweep(wl.World, prof, s)
			})
			pm := &res.Phase[world.PhaseCloth]
			before := *pm
			account(world.PhaseCloth, true, false, func(s mem.Stream) {
				wl.Layout.ClothSweep(wl.World, prof, s)
			})
			scaleSteady(pm, before, iters-1)
			account(world.PhaseCloth, true, true, func(s mem.Stream) {
				archos.KernelStream(cfg.Threads, mem.ThreadBase, s)
			})
		}
	}
	if r := wl.obs.reg; r != nil {
		var l1h, l1m uint64
		for _, l1 := range h.L1s {
			l1h += l1.Stats.Hits
			l1m += l1.Stats.Misses
		}
		r.Add(wl.obs.l1Hits, int64(l1h))
		r.Add(wl.obs.l1Misses, int64(l1m))
		l2 := &h.L2.Stats
		r.Add(wl.obs.l2Hits, int64(l2.Hits))
		r.Add(wl.obs.l2Misses, int64(l2.Misses))
		r.Add(wl.obs.l2Writebacks, int64(l2.Writebacks))
		r.Add(wl.obs.l2Invals, int64(l2.Invalidations))
	}
	wl.obs.lane.Complete(wl.obs.memsimSpan, obsStart)
	return res
}

// scaleSteady extrapolates the last (steady) sweep's deltas by factor-1
// additional sweeps.
func scaleSteady(pm *PhaseMem, before PhaseMem, extra int) {
	if extra <= 0 {
		return
	}
	f := uint64(extra)
	pm.Accesses += (pm.Accesses - before.Accesses) * f
	pm.L1Misses += (pm.L1Misses - before.L1Misses) * f
	pm.L2Misses += (pm.L2Misses - before.L2Misses) * f
	pm.KernelL2Misses += (pm.KernelL2Misses - before.KernelL2Misses) * f
	pm.StallCycles += (pm.StallCycles - before.StallCycles) * float64(extra)
}
