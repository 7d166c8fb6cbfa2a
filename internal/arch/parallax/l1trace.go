package parallax

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"github.com/parallax-arch/parallax/internal/arch/cache"
	"github.com/parallax-arch/parallax/internal/arch/mem"
	archos "github.com/parallax-arch/parallax/internal/arch/os"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// l1Class is everything in a MemConfig the per-core L1s can see. The L2
// never writes an L1 (no inclusion, no back-invalidation; it is
// consulted only on an L1 miss), so which references miss their L1, in
// what order and from which core, depends on the reference streams —
// the workload, the phases simulated, the thread count that deals the
// parallel phases' references out to cores — and on nothing about the
// L2. Cores is not here either: only cores below Threads ever issue a
// reference.
type l1Class struct {
	Threads        int
	DedicatedPhase int
}

// blockShift is log2 of the 64-byte block both cache levels use: a
// recorded miss is replayed at its block's base address.
const blockShift = 6

// writeBit marks a write in a trace entry; the block address is the
// rest.
const writeBit = 1 << 31

// l1Trace is one frame's reference streams as the L2 sees them: every
// L1 miss of the class, in program order, cut into the segments the
// memory simulation accounts separately.
type l1Trace struct {
	segs []l1Segment
	// entries holds one block address | writeBit per L1 miss, and cores
	// the core it came from — left nil by a single-thread class, whose
	// every reference comes from core 0.
	entries []uint32
	cores   []uint16
	// hits and misses are the L1s' totals over the whole trace.
	hits, misses uint64
}

// l1Segment is one stream emission: its accounting attributes and its
// L1 misses, entries [lo, hi) of the trace.
type l1Segment struct {
	phase world.Phase
	// kernel marks OS/kernel references (PhaseMem.KernelL2Misses).
	kernel bool
	// warm marks the dedicated-cache experiments' unaccounted warm-up.
	warm bool
	// steady marks the sampled steady-state sweep that scaleSteady
	// extrapolates over the remaining solver iterations.
	steady   bool
	accesses uint64
	lo, hi   int
}

// bytes is the memory the trace retains.
func (t *l1Trace) bytes() int {
	return len(t.segs)*int(unsafe.Sizeof(l1Segment{})) + 4*len(t.entries) + 2*len(t.cores)
}

// cut returns entries [lo, hi) and their cores (nil: all core 0).
func (t *l1Trace) cut(lo, hi int) ([]uint32, []uint16) {
	if len(t.cores) == 0 {
		return t.entries[lo:hi], nil
	}
	return t.entries[lo:hi], t.cores[lo:hi]
}

// l1Trace returns the class's miss trace, recording it on first use.
func (wl *Workload) l1Trace(cls l1Class) *l1Trace {
	wl.obs.reg.Add(wl.obs.l1traceRequests, 1)
	return wl.l1traces.get(cls, func() *l1Trace {
		obsStart := wl.obs.tr.Now()
		t := wl.recordL1Trace(cls)
		wl.obs.reg.Add(wl.obs.l1traceComputed, 1)
		wl.obs.reg.Add(wl.obs.l1traceBytes, int64(t.bytes()))
		wl.obs.lane.Complete(wl.obs.l1traceSpan, obsStart)
		return t
	})
}

// recordL1Trace generates the class's reference streams once and runs
// them through the per-core L1s.
func (wl *Workload) recordL1Trace(cls l1Class) *l1Trace {
	l1s := make([]*cache.Cache, cls.Threads)
	for i := range l1s {
		l1s[i] = cache.New(cache.L1D())
	}
	t := &l1Trace{}
	firstKernel := -1

	// record runs one stream emission through the L1s as a segment.
	// Parallel-phase references round-robin across the cores' L1s.
	record := func(seg l1Segment, parallel bool, emit func(mem.Stream)) {
		core := 0
		seg.lo = len(t.entries)
		emit(func(addr uint64, write bool) {
			seg.accesses++
			c := core
			if parallel {
				if core++; core == cls.Threads {
					core = 0
				}
			}
			if l1s[c].Access(addr, write, c, -1) {
				return
			}
			block := addr >> blockShift
			if block >= writeBit || c > math.MaxUint16 {
				panic(fmt.Sprintf("parallax: L1 miss at %#x from core %d does not fit a trace entry", addr, c))
			}
			e := uint32(block)
			if write {
				e |= writeBit
			}
			t.entries = append(t.entries, e)
			if cls.Threads > 1 {
				t.cores = append(t.cores, uint16(c))
			}
		})
		seg.hi = len(t.entries)
		// The kernel stream is the same references every time, over
		// per-thread regions far larger than an L1, so its emissions miss
		// alike — and at 8 threads they are most of a trace. One that
		// missed exactly as the first did shares its entries.
		if seg.kernel && firstKernel < 0 {
			firstKernel = len(t.segs)
		} else if seg.kernel {
			k := t.segs[firstKernel]
			ke, kc := t.cut(k.lo, k.hi)
			if e, c := t.cut(seg.lo, seg.hi); slices.Equal(ke, e) && slices.Equal(kc, c) {
				t.entries, t.cores = t.cut(0, seg.lo)
				seg.lo, seg.hi = k.lo, k.hi
			}
		}
		t.segs = append(t.segs, seg)
	}

	// stream is the phase's once-per-step reference stream.
	stream := func(ph world.Phase, prof *world.StepProfile) func(mem.Stream) {
		return func(s mem.Stream) {
			switch ph {
			case world.PhaseBroad:
				wl.Layout.BroadphaseTrace(wl.World, prof, s)
			case world.PhaseNarrow:
				wl.Layout.NarrowphaseTrace(wl.World, prof, s)
			case world.PhaseIslandGen:
				wl.Layout.IslandCreationTrace(wl.World, prof, s)
			case world.PhaseIslandProc:
				wl.Layout.IslandSweep(wl.World, prof, s)
			case world.PhaseCloth:
				wl.Layout.ClothSweep(wl.World, prof, s)
			}
		}
	}
	kernelStream := func(s mem.Stream) {
		archos.KernelStream(cls.Threads, mem.ThreadBase, s)
	}

	// The paper's dedicated-cache experiments save the phase's cache
	// state at the end of a step and reload it at the start of the next,
	// so the measured steps see warm state. Replay the phase's streams
	// once unaccounted, on core 0, to reproduce that warm start.
	if cls.DedicatedPhase >= 0 {
		ph := world.Phase(cls.DedicatedPhase)
		for si := range wl.Frame.Steps {
			record(l1Segment{phase: ph, warm: true}, false, stream(ph, &wl.Frame.Steps[si]))
		}
	}

	for si := range wl.Frame.Steps {
		prof := &wl.Frame.Steps[si]
		for ph := world.PhaseBroad; ph < world.NumPhases; ph++ {
			if cls.DedicatedPhase >= 0 && ph != world.Phase(cls.DedicatedPhase) {
				continue
			}
			if ph == world.PhaseCloth && len(wl.Layout.ClothBase) == 0 {
				continue
			}
			record(l1Segment{phase: ph}, !ph.Serial(), stream(ph, prof))
			// The iterated phases sample one steady sweep, which the replay
			// scales by (iters-1), and end with the worker threads'
			// OS/kernel overhead.
			switch ph {
			case world.PhaseIslandProc:
				// Row construction streamed once, above; the iterated working
				// set is the bodies.
				record(l1Segment{phase: ph, steady: true}, true, func(s mem.Stream) {
					wl.Layout.IslandSweepSteady(wl.World, prof, s)
				})
				record(l1Segment{phase: ph, kernel: true}, true, kernelStream)
			case world.PhaseCloth:
				record(l1Segment{phase: ph, steady: true}, true, stream(ph, prof))
				record(l1Segment{phase: ph, kernel: true}, true, kernelStream)
			}
		}
	}

	for _, l1 := range l1s {
		t.hits += l1.Stats.Hits
		t.misses += l1.Stats.Misses
	}
	// A trace lives as long as its workload: keep no append slack.
	t.entries = append(make([]uint32, 0, len(t.entries)), t.entries...)
	t.cores = append(make([]uint16, 0, len(t.cores)), t.cores...)
	return t
}
