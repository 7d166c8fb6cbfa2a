package parallax

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/parallax-arch/parallax/internal/arch/cache"
	"github.com/parallax-arch/parallax/internal/arch/mem"
	archos "github.com/parallax-arch/parallax/internal/arch/os"
	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/workload"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// cacheTotals is what one simulation adds to the six arch/cache/*
// counters.
type cacheTotals struct {
	l1Hits, l1Misses uint64
	l2               cache.Stats
}

// referenceSimulateMemory is the memory simulation as it was before the
// L1 side became a recorded trace: every reference of every stream,
// regenerated per configuration, through a live cache.Hierarchy. It is
// the oracle simulateMemory is held to, result and cache counters both;
// cfg is already normalized.
func referenceSimulateMemory(wl *Workload, cfg MemConfig) (MemResult, cacheTotals) {
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
	tot := cacheTotals{l2: h.L2.Stats}
	for _, l1 := range h.L1s {
		tot.l1Hits += l1.Stats.Hits
		tot.l1Misses += l1.Stats.Misses
	}
	return res, tot
}

// cacheCounters reads the six arch/cache/* counters.
func (wl *Workload) cacheCounters() cacheTotals {
	v := func(id obs.CounterID) uint64 { return uint64(wl.obs.reg.CounterValue(id)) }
	return cacheTotals{
		l1Hits: v(wl.obs.l1Hits), l1Misses: v(wl.obs.l1Misses),
		l2: cache.Stats{
			Hits: v(wl.obs.l2Hits), Misses: v(wl.obs.l2Misses),
			Writebacks: v(wl.obs.l2Writebacks), Invalidations: v(wl.obs.l2Invals),
		},
	}
}

// sub returns the counters' growth since before.
func (c cacheTotals) sub(before cacheTotals) cacheTotals {
	c.l1Hits -= before.l1Hits
	c.l1Misses -= before.l1Misses
	c.l2.Hits -= before.l2.Hits
	c.l2.Misses -= before.l2.Misses
	c.l2.Writebacks -= before.l2.Writebacks
	c.l2.Invalidations -= before.l2.Invalidations
	return c
}

// checkAgainstReference runs cfg through simulateMemory and through the
// reference and requires the same MemResult, field by field
// (StallCycles by bits), and the same growth of the cache counters.
func checkAgainstReference(t *testing.T, wl *Workload, cfg MemConfig) {
	t.Helper()
	cfg = cfg.normalized()
	want, wantTot := referenceSimulateMemory(wl, cfg)
	before := wl.cacheCounters()
	got := wl.simulateMemory(cfg)
	if gotTot := wl.cacheCounters().sub(before); gotTot != wantTot {
		t.Errorf("%s %+v: cache counters %+v, reference %+v", wl.Name, cfg, gotTot, wantTot)
	}
	for ph := range got.Phase {
		g, w := got.Phase[ph], want.Phase[ph]
		if g.Accesses != w.Accesses || g.L1Misses != w.L1Misses || g.L2Misses != w.L2Misses ||
			g.KernelL2Misses != w.KernelL2Misses || math.Float64bits(g.StallCycles) != math.Float64bits(w.StallCycles) {
			t.Errorf("%s %+v: phase %v = %+v, reference %+v", wl.Name, cfg, world.Phase(ph), g, w)
		}
	}
}

// TestSimulateMemoryMatchesReference holds the trace replay to the
// per-reference simulation it replaced, on all eight scenes, over every
// L1 class (Threads 1/2/4/8 x DedicatedPhase -1 and 0-4) and every L2
// shape (1/3/12/32 MB x shared/partitioned x PrefetchDepth 0/4). A
// scene takes each class through two of the sixteen shapes, rotated so
// that every (class, shape) pair is simulated on one scene.
func TestSimulateMemoryMatchesReference(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("384 simulations, each twice; two minutes under the race detector, which has nothing to find in one goroutine's arithmetic")
	}
	var classes []l1Class
	for _, threads := range []int{1, 2, 4, 8} {
		for ded := -1; ded < int(world.NumPhases); ded++ {
			classes = append(classes, l1Class{Threads: threads, DedicatedPhase: ded})
		}
	}
	var shapes []MemConfig
	for _, mb := range []int{1, 3, 12, 32} {
		for _, part := range []bool{false, true} {
			for _, depth := range []int{0, 4} {
				shapes = append(shapes, MemConfig{L2MB: mb, Partitioned: part, PrefetchDepth: depth})
			}
		}
	}
	for si, b := range workload.All {
		si, b := si, b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			wl := Capture(b.Name, b.Build(0.15), 1, 2)
			wl.SetObs(nil, obs.NewRegistry(), "arch/"+b.Name)
			for ci, cls := range classes {
				for li, cfg := range shapes {
					if (si+ci+li)%len(workload.All) != 0 {
						continue
					}
					cfg.Cores, cfg.Threads, cfg.DedicatedPhase = cls.Threads, cls.Threads, cls.DedicatedPhase
					checkAgainstReference(t, wl, cfg)
				}
			}
		})
	}
}

// TestL1TraceEntryRange: a trace entry holds what a MemConfig and a
// layout can produce — a core far past 8 threads, with more cores than
// threads — and a reference it cannot hold stops the recording by name
// instead of being truncated into the wrong block.
func TestL1TraceEntryRange(t *testing.T) {
	wl := capture(t, "Periodic", 0.15)
	wl.SetObs(nil, obs.NewRegistry(), "arch/Periodic")
	wide := MemConfig{Cores: 2, L2MB: 3, Partitioned: true, Threads: 300, DedicatedPhase: int(world.PhaseNarrow)}
	checkAgainstReference(t, wl, wide)
	checkAgainstReference(t, wl, MemConfig{Cores: 8, L2MB: 3, Threads: 3, DedicatedPhase: -1})
	// The narrow phase never writes a block twice, so no L2 counter reads
	// the core there; the trace itself must name all 300.
	seen := make(map[uint16]bool)
	for _, c := range wl.l1Trace(l1Class{Threads: wide.Threads, DedicatedPhase: wide.DedicatedPhase}).cores {
		seen[c] = true
	}
	if len(seen) != wide.Threads || !seen[uint16(wide.Threads-1)] {
		t.Errorf("trace entries name %d cores at %d threads", len(seen), wide.Threads)
	}

	wl.Layout.PairBase = 1 << 37 // block 2^31, the entry's write bit
	defer func() {
		if r := fmt.Sprint(recover()); !strings.Contains(r, "does not fit a trace entry") {
			t.Errorf("recording a reference to block 2^31: %s, want a refusal by name", r)
		}
	}()
	wl.recordL1Trace(l1Class{Threads: 1, DedicatedPhase: -1})
}

// TestReplayDoesNotAllocate: once a class's trace exists, a simulation
// allocates the L2 (the cache and its lines; when partitioned, the bank
// lists too) and nothing per segment or per miss.
func TestReplayDoesNotAllocate(t *testing.T) {
	wl := capture(t, "Mix", 0.15)
	for _, tc := range []struct {
		cfg MemConfig
		max float64
	}{
		{MemConfig{Cores: 2, L2MB: 3, Threads: 2, DedicatedPhase: -1, PrefetchDepth: 4}, 2},
		{MemConfig{Cores: 2, L2MB: 12, Partitioned: true, Threads: 2, DedicatedPhase: -1}, 16},
	} {
		tr := wl.l1Trace(l1Class{Threads: 2, DedicatedPhase: -1})
		if len(tr.entries) < 10000 || len(tr.cores) != len(tr.entries) || len(tr.segs) < 3*6 {
			t.Fatalf("trace too small to tell: %d misses, %d cores, %d segments", len(tr.entries), len(tr.cores), len(tr.segs))
		}
		if allocs := testing.AllocsPerRun(20, func() { wl.simulateMemory(tc.cfg) }); allocs > tc.max {
			t.Errorf("%+v: %v allocations replaying %d misses, want at most the L2's %v", tc.cfg, allocs, len(tr.entries), tc.max)
		}
		if cap(tr.entries) != len(tr.entries) || cap(tr.cores) != len(tr.cores) {
			t.Errorf("trace retains slack: entries %d/%d, cores %d/%d", len(tr.entries), cap(tr.entries), len(tr.cores), cap(tr.cores))
		}
	}
}

// TestL1TraceSharedAcrossL2Sizes (run with -race in CI): two L2 sizes
// of one L1 class, requested from 16 goroutines at once, are two
// simulations over one recorded trace.
func TestL1TraceSharedAcrossL2Sizes(t *testing.T) {
	wl := capture(t, "Periodic", 0.15)
	reg := obs.NewRegistry()
	wl.SetObs(nil, reg, "arch/Periodic")
	var wg sync.WaitGroup
	results := make([]MemResult, 16)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = wl.SimulateMemory(MemConfig{Cores: 2, L2MB: 1 + 2*(g%2), Threads: 2, DedicatedPhase: -1})
		}(g)
	}
	wg.Wait()
	for name, want := range map[string]int64{
		"arch/l1trace_computed": 1, "arch/l1trace_requests": 2,
		"arch/memsim_computed": 2, "arch/memsim_requests": 16,
	} {
		if got := reg.CounterValue(reg.Counter(name)); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	tr := wl.l1Trace(l1Class{Threads: 2, DedicatedPhase: -1})
	if got := reg.CounterValue(wl.obs.l1traceBytes); got != int64(tr.bytes()) || got < int64(6*len(tr.entries)) {
		t.Errorf("arch/l1trace_bytes = %d, the one trace retains %d (%d misses)", got, tr.bytes(), len(tr.entries))
	}
	for g, r := range results {
		if r != results[g%2] {
			t.Errorf("goroutine %d: result differs from goroutine %d's for the same MemConfig", g, g%2)
		}
	}
	if results[0] == results[1] {
		t.Error("a 1 MB and a 3 MB L2 gave the same result")
	}
}

// TestSimulateMemoryRefusesEmptyL2: a MemConfig with L2MB left at zero
// used to divide by zero inside the cache model, and the memo then
// handed every later caller a zero MemResult. The cache refuses the
// config by name, and so does every later request for it.
func TestSimulateMemoryRefusesEmptyL2(t *testing.T) {
	wl := capture(t, "Periodic", 0.15)
	for call := 1; call <= 2; call++ {
		func() {
			defer func() {
				r := fmt.Sprint(recover())
				if want := []string{"cache: config has no sets", "panicked"}[call-1]; !strings.Contains(r, want) {
					t.Errorf("call %d: recovered %q, want a panic naming %q", call, r, want)
				}
			}()
			res := wl.SimulateMemory(MemConfig{Cores: 1, DedicatedPhase: -1})
			t.Errorf("call %d returned %+v for an L2 of no banks", call, res)
		}()
	}
}

// TestMemoNeverServesAPanickedEntry (run with -race in CI): when a
// key's computation panics, every goroutine asking for that key panics,
// whether it was the one computing, was waiting on it or came later;
// other keys are unaffected.
func TestMemoNeverServesAPanickedEntry(t *testing.T) {
	var m memo[int, int]
	var wg sync.WaitGroup
	var served, panicked atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if recover() != nil {
					panicked.Add(1)
				}
			}()
			m.get(7, func() int { panic("compute failed") })
			served.Add(1)
		}()
	}
	wg.Wait()
	if served.Load() != 0 || panicked.Load() != 16 {
		t.Errorf("%d callers were served a value and %d panicked, want 0 and 16", served.Load(), panicked.Load())
	}
	if v := m.get(8, func() int { return 64 }); v != 64 {
		t.Errorf("a healthy key next to a failed one returned %d", v)
	}
}
