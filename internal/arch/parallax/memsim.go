package parallax

import (
	"github.com/parallax-arch/parallax/internal/arch/cache"
	"github.com/parallax-arch/parallax/internal/arch/kernels"
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
	// DedicatedPhase, when >= 0, is a kernels.Kernel: only that phase's
	// stream is simulated, with the whole L2 dedicated to it (the
	// working-set experiments of Figs 3-5 save and restore per-phase
	// cache state; dedicating the cache to one phase is equivalent).
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
	Phase [kernels.NumKernels]PhaseMem
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
// is already normalized. The L1 side of the hierarchy is the class's
// recorded miss trace (l1trace.go); only the L2 is built and run here.
// That is exact: the L2 sees the references, cores, partitions and
// clock it would see behind live L1s, an L1 hit stalls for zero cycles,
// and every stall term is a small integer, so summing a segment's
// stalls at once gives the float the per-reference sum gives.
func (wl *Workload) simulateMemory(cfg MemConfig) MemResult {
	tr := wl.l1Trace(l1Class{Threads: cfg.Threads, DedicatedPhase: cfg.DedicatedPhase})
	obsStart := wl.obs.tr.Now()
	l2cfg := cache.L2BankMB(cfg.L2MB)
	l2 := cache.New(l2cfg)
	l2.Prefetch = cfg.PrefetchDepth
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
		l2.PartitionBanks(PartBroad, broadB)
		l2.PartitionBanks(PartIslandGen, genB)
		l2.PartitionBanks(PartParallel, parB)
	}

	var res MemResult
	iters := wl.World.Solver.Iterations
	if iters < 1 {
		iters = 1
	}
	// Stall cycles beyond the L1's own latency: an L2 hit's 15, plus the
	// 340-cycle miss-to-memory penalty (paper Table 5).
	hitStall := uint64(l2cfg.HitLatency)
	missStall := hitStall + 340

	for _, seg := range tr.segs {
		part := -1
		// Dedicated experiments use the whole cache.
		if cfg.Partitioned && cfg.DedicatedPhase < 0 {
			switch seg.phase {
			case kernels.Broad:
				part = PartBroad
			case kernels.IslandGen:
				part = PartIslandGen
			default:
				part = PartParallel
			}
		}
		was := l2.Stats
		entries, cores := tr.cut(seg.lo, seg.hi)
		for i, e := range entries {
			core := 0
			if cores != nil {
				core = int(cores[i])
			}
			l2.Access(uint64(e&^writeBit)<<blockShift, e&writeBit != 0, core, part)
		}
		if seg.warm {
			continue
		}
		hits, misses := l2.Stats.Hits-was.Hits, l2.Stats.Misses-was.Misses
		pm := &res.Phase[seg.phase]
		before := *pm
		pm.Accesses += seg.accesses
		pm.L1Misses += hits + misses
		pm.L2Misses += misses
		if seg.kernel {
			pm.KernelL2Misses += misses
		}
		pm.StallCycles += float64(hitStall*hits + missStall*misses)
		if seg.steady {
			scaleSteady(pm, before, iters-1)
		}
	}
	if r := wl.obs.reg; r != nil {
		r.Add(wl.obs.l1Hits, int64(tr.hits))
		r.Add(wl.obs.l1Misses, int64(tr.misses))
		r.Add(wl.obs.l2Hits, int64(l2.Stats.Hits))
		r.Add(wl.obs.l2Misses, int64(l2.Stats.Misses))
		r.Add(wl.obs.l2Writebacks, int64(l2.Stats.Writebacks))
		r.Add(wl.obs.l2Invals, int64(l2.Stats.Invalidations))
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
