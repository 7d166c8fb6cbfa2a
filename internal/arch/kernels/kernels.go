// Package kernels models the three fine-grain kernels the paper
// characterizes (section 8.1): the Narrowphase object-pair test, the
// Island Processing LCP row update, and the Cloth vertex update. Each
// kernel is generated as a synthetic instruction trace with the
// measured static size (277 / 177 / 221 unique instructions), the
// measured instruction mix (Fig 9b), and the dependency structure that
// produces the observed ILP behaviour (branchy integer code for
// Narrowphase; bursty floating-point ILP for Island and Cloth). Two
// serial-phase code models complete the set, so a Kernel names each of
// the five phases the architecture model times, and CostModel turns the
// engine's per-step work counters into per-phase instruction counts.
package kernels

import (
	"math/rand"
	"slices"

	"github.com/parallax-arch/parallax/internal/arch/cpu"
)

// Kernel identifies one of the five computational phases (paper Fig 1)
// by the code model that times it: the three FG kernels model the
// parallel phases, and the sweep-and-prune and union-find loops model
// the serial ones (they are never farmed to FG cores, but give the
// phases' instruction mix and CG-core IPC).
type Kernel int

// The five phases, in pipeline order. Per-phase arrays are indexed by
// Kernel, so every walk and float sum over phases runs in this order.
const (
	// Broad models the sweep-and-prune update loop.
	Broad Kernel = iota
	Narrow
	// IslandGen models the union-find island construction loop.
	IslandGen
	Island
	Cloth
	// NumKernels sizes every per-phase array.
	NumKernels
)

// FG lists the fine-grain kernels, the phases farmable to FG cores, in
// the order the models sum them.
var FG = [...]Kernel{Narrow, Island, Cloth}

var kernelNames = [NumKernels]string{
	Broad:     "Broadphase",
	Narrow:    "Narrowphase",
	IslandGen: "Island Creation",
	Island:    "Island Processing",
	Cloth:     "Cloth",
}

func (k Kernel) String() string { return kernelNames[k] }

// Serial reports whether k is one of the hard-to-parallelize (serial)
// phases.
func (k Kernel) Serial() bool { return k == Broad || k == IslandGen }

// traceID is each kernel's trace identity: it seeds the static body,
// places the PCs and seeds the IPC trace. It is kept apart from the
// pipeline numbering because changing it moves every trace and every
// modeled IPC (TestIPCTraceIdentity pins the traces).
var traceID = [NumKernels]int{Narrow: 0, Island: 1, Cloth: 2, Broad: 3, IslandGen: 4}

// StaticSize returns the number of unique static instructions in the
// kernel (paper section 8.1.2 for the FG kernels; the serial-phase
// loops are modeled at comparable sizes).
func (k Kernel) StaticSize() int {
	switch k {
	case Narrow:
		return 277
	case Island:
		return 177
	case Cloth:
		return 221
	case Broad:
		return 180
	default: // IslandGen
		return 120
	}
}

// Instruction-memory requirements (section 8.1.2): with 32-bit
// instructions all three kernels fit in 2.7KB of FG-core local memory.
const (
	InstrBytes32      = 4
	AllKernelsBytes32 = (277 + 177 + 221) * InstrBytes32 // 2.7KB
)

// Per-task data movement, from the paper's sampling (section 8.1.2):
// unique bytes read and written per kernel task.
func (k Kernel) DataIn() int {
	switch k {
	case Narrow:
		return 1668
	case Island:
		return 604
	default:
		return 376
	}
}

// DataOut returns unique bytes written per task.
func (k Kernel) DataOut() int {
	switch k {
	case Narrow:
		return 100
	case Island:
		return 128
	default:
		return 308
	}
}

// site describes one static instruction slot of a kernel body.
type site struct {
	op   cpu.Op
	src1 uint16
	src2 uint16
	// branch behaviour: bias = probability taken; chaotic sites are
	// data-dependent and effectively unpredictable.
	bias float64
}

// body builds the static kernel body for k. The body length equals
// StaticSize(k); the mix and dependency shape differ per kernel.
func (k Kernel) body(r *rand.Rand) []site {
	n := k.StaticSize()
	var sites []site
	switch k {
	case Narrow:
		// Branchy integer geometry code: ~40% int alu, 8% branches,
		// ~30% loads, ~7% stores, a sprinkle of FP compares/adds. Short
		// serial dependency chains (address computation feeding loads
		// feeding compares feeding branches).
		for len(sites) < n {
			sites = append(sites,
				site{op: cpu.Load, src1: 1},
				site{op: cpu.IntALU, src1: 1},
				site{op: cpu.IntALU, src1: 1, src2: 3},
				site{op: cpu.Load, src1: 2},
				site{op: cpu.IntALU, src1: 1},
				site{op: cpu.FPCmp, src1: 2},
			)
			b := site{op: cpu.Branch, src1: 1}
			// 60% of branch sites are biased, the rest data-dependent.
			if r.Float64() < 0.6 {
				b.bias = 0.93
			} else {
				b.bias = 0.5
			}
			sites = append(sites, b)
			sites = append(sites,
				site{op: cpu.IntALU, src1: 2},
				site{op: cpu.Load, src1: 1},
				site{op: cpu.FPAdd, src1: 1},
				site{op: cpu.IntALU, src1: 4},
				site{op: cpu.Store, src1: 1},
			)
		}
	case Island:
		// The PGS row update: lanes of independent load/address/multiply
		// work (Jacobian dot products over 6-DOF bodies) followed by a
		// short serial reduction and a clamped update. The 8-wide
		// independent bursts give the high ILP ceiling the limit study
		// measures; the ~32% FP fraction matches Fig 9b.
		for len(sites) < n {
			burst := 8
			for i := 0; i < burst; i++ {
				// Each lane: load -> address update -> multiply, lanes
				// independent of each other.
				sites = append(sites, site{op: cpu.Load})
				sites = append(sites, site{op: cpu.IntALU, src1: 1})
				sites = append(sites, site{op: cpu.FPMul, src1: 2})
			}
			// Reduction: pairwise adds over the lane products.
			for i := 0; i < 4; i++ {
				sites = append(sites, site{op: cpu.FPAdd, src1: 3, src2: 6})
			}
			sites = append(sites,
				site{op: cpu.FPCmp, src1: 1},
				site{op: cpu.Branch, src1: 1, bias: 0.9}, // clamp rarely hit
				site{op: cpu.IntALU, src1: 1},
				site{op: cpu.Store, src1: 2},
				site{op: cpu.Store, src1: 3},
			)
		}
	case Cloth:
		// The Verlet vertex update: moderate FP bursts, integer mults
		// for addressing, an occasional divide/sqrt (constraint length
		// normalization), and more branches than Island (~28% FP).
		for len(sites) < n {
			burst := 6
			for i := 0; i < burst; i++ {
				sites = append(sites, site{op: cpu.Load})
				sites = append(sites, site{op: cpu.IntALU, src1: 1})
				if i%2 == 0 {
					sites = append(sites, site{op: cpu.FPAdd, src1: 2})
				} else {
					sites = append(sites, site{op: cpu.FPMul, src1: 2})
				}
			}
			sites = append(sites,
				site{op: cpu.IntMul, src1: 1},
				site{op: cpu.FPSqrt, src1: 3},
				site{op: cpu.FPDiv, src1: 1},
				site{op: cpu.FPCmp, src1: 1},
				site{op: cpu.Branch, src1: 1, bias: 0.8},
				site{op: cpu.IntALU, src1: 1},
				site{op: cpu.Branch, src1: 1, bias: 0.95},
				site{op: cpu.Load, src1: 2},
				site{op: cpu.Store, src1: 3},
				site{op: cpu.Store, src1: 4},
			)
		}
	case Broad:
		// The sweep-and-prune update: endpoint comparisons over
		// nearly-sorted data (well-predicted branches), integer index
		// arithmetic, and endpoint exchanges. Almost no floating point
		// beyond the coordinate compares.
		for len(sites) < n {
			sites = append(sites,
				site{op: cpu.Load, src1: 1},
				site{op: cpu.IntALU, src1: 1},
				site{op: cpu.FPCmp, src1: 2},
				site{op: cpu.Branch, src1: 1, bias: 0.96}, // nearly sorted
				site{op: cpu.IntALU, src1: 1},
				site{op: cpu.Load, src1: 2},
				site{op: cpu.IntALU, src1: 1},
				site{op: cpu.Branch, src1: 1, bias: 0.88},
				site{op: cpu.Store, src1: 2},
				site{op: cpu.IntALU, src1: 1},
			)
		}
	case IslandGen:
		// Union-find parent chasing: serial dependent loads with a
		// data-dependent exit branch — low ILP, memory-latency-bound,
		// which is why the phase loves a big L2 (Fig 4a).
		for len(sites) < n {
			sites = append(sites,
				site{op: cpu.Load, src1: 1},               // parent[x]
				site{op: cpu.IntALU, src1: 1},             // compare/index
				site{op: cpu.Branch, src1: 1, bias: 0.65}, // chain end?
				site{op: cpu.Load, src1: 3},               // next parent (dependent)
				site{op: cpu.IntALU, src1: 1},
				site{op: cpu.Store, src1: 2}, // path compression
			)
		}
	}
	return sites[:n]
}

// Trace generates iters iterations of kernel k as a cpu trace. Static
// PCs repeat across iterations (the code is resident in FG local
// memory), so the branch predictor trains across tasks exactly as it
// would on the real kernel; data-dependent branch outcomes vary per
// iteration.
func (k Kernel) Trace(iters int, seed int64) []cpu.Instr {
	r := rand.New(rand.NewSource(seed))
	body := k.body(rand.New(rand.NewSource(int64(traceID[k]) + 1)))
	pcBase := uint32(0x1000 + traceID[k]*0x4000)
	out := make([]cpu.Instr, 0, iters*len(body))
	for it := 0; it < iters; it++ {
		for si, s := range body {
			ins := cpu.Instr{
				Op:   s.op,
				PC:   pcBase + uint32(si*4),
				Src1: s.src1,
				Src2: s.src2,
			}
			if s.op.IsBranch() {
				ins.Taken = r.Float64() < s.bias
			}
			out = append(out, ins)
		}
	}
	return out
}

// IPCTrace is the trace KernelIPC times: 300 iterations at the kernel's
// own seed.
func (k Kernel) IPCTrace() []cpu.Instr {
	return k.Trace(300, int64(traceID[k])+11)
}

// Mix returns the fraction of each op class in kernel k's trace,
// mirroring Fig 9b (NOPs are never generated, matching the paper's
// NOP-filtered mixes).
func (k Kernel) Mix() map[cpu.Op]float64 {
	tr := k.Trace(50, 7)
	counts := map[cpu.Op]int{}
	for _, ins := range tr {
		counts[ins.Op]++
	}
	out := make(map[cpu.Op]float64, len(counts))
	for op, c := range counts {
		out[op] = float64(c) / float64(len(tr))
	}
	return out
}

// MixSummary collapses a mix into the paper's Fig 7b/9b categories.
type MixSummary struct {
	IntALU, Branch, FPAdd, FPMul, Read, Write, Other float64
}

// Summary converts a mix map into the display categories. Ops are
// visited in sorted order so the floating-point category sums are
// rounded identically on every run (map iteration order would make the
// printed Fig 7b/9b mixes jitter in the last digit).
func Summary(mix map[cpu.Op]float64) MixSummary {
	var s MixSummary
	ops := make([]cpu.Op, 0, len(mix))
	for op := range mix {
		ops = append(ops, op)
	}
	slices.Sort(ops)
	for _, op := range ops {
		f := mix[op]
		switch op {
		case cpu.IntALU, cpu.IntMul:
			s.IntALU += f
		case cpu.Branch, cpu.Call, cpu.Ret, cpu.FPCmp:
			s.Branch += f
		case cpu.FPAdd:
			s.FPAdd += f
		case cpu.FPMul, cpu.FPDiv, cpu.FPSqrt:
			s.FPMul += f
		case cpu.Load:
			s.Read += f
		case cpu.Store:
			s.Write += f
		default:
			s.Other += f
		}
	}
	return s
}
