// Package cpu implements the trace-driven out-of-order core timing
// model used for the fine-grain core design-space exploration (paper
// Table 6): a parameterized fetch/issue/retire pipeline with an
// instruction window, reorder buffer, functional-unit constraints, a
// YAGS branch predictor with a return-address stack, and a mispredict
// recovery penalty that grows with speculation depth.
package cpu

import (
	"github.com/parallax-arch/parallax/internal/arch/bpred"
)

// Op classifies instructions, mirroring the paper's instruction-mix
// categories (Figs 7b, 9b): int alu, branch, float add, float mult,
// read port, write port, other.
type Op uint8

// Instruction classes.
const (
	IntALU Op = iota
	IntMul
	Branch
	Call
	Ret
	FPAdd
	FPMul
	FPDiv
	FPSqrt
	FPCmp
	Load
	Store
	NumOps
)

var opNames = [...]string{
	"int alu", "int mul", "branch", "call", "ret",
	"float add", "float mult", "float div", "float sqrt", "float cmp",
	"rd port", "wr port",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "other"
}

// IsFP reports whether the op uses a floating-point unit.
func (o Op) IsFP() bool { return o >= FPAdd && o <= FPCmp }

// IsMem reports whether the op uses a load/store port.
func (o Op) IsMem() bool { return o == Load || o == Store }

// IsBranch covers all control-flow ops.
func (o Op) IsBranch() bool { return o == Branch || o == Call || o == Ret }

// Instr is one trace instruction. Src1/Src2 are producer distances: the
// instruction depends on the instructions Src1 and Src2 positions
// earlier in the trace (0 = no dependency).
type Instr struct {
	Op    Op
	PC    uint32
	Src1  uint16
	Src2  uint16
	Taken bool
}

// Config is a core configuration (Tables 5 and 6).
type Config struct {
	Name string
	// Width is the fetch/issue/commit width.
	Width int
	// Window is the scheduler (instruction window) size.
	Window int
	// ROB is the reorder buffer size.
	ROB int
	// Depth is the pipeline depth: the mispredict redirect penalty.
	Depth int
	// PredKB sizes the YAGS predictor; RAS is the return stack depth.
	PredKB int
	RAS    int
	// Functional units.
	IntUnits, FPUnits, MemUnits int
	// LoadLat is the load-to-use latency: 2 for the CG cores' L1, 1 for
	// FG cores whose requests "always hit in single-cycle local memory".
	LoadLat int
	// ExtraLat is added to every op's latency, modeling cores without a
	// full forwarding network (results visible only after writeback, as
	// in simple shader pipelines).
	ExtraLat int
	// ClockGHz is used when converting cycles to seconds (2 GHz for all
	// cores in the paper).
	ClockGHz float64
}

// The paper's four fine-grain core design points (Table 6) and the
// coarse-grain core (Table 5).
var (
	// Desktop is modeled on an Intel Core Duo class core.
	Desktop = Config{Name: "Desktop", Width: 4, Window: 32, ROB: 96, Depth: 14,
		PredKB: 17, RAS: 64, IntUnits: 4, FPUnits: 2, MemUnits: 2, LoadLat: 1, ClockGHz: 2}
	// Console is modeled on an IBM Cell PPE-class core.
	Console = Config{Name: "Console", Width: 2, Window: 8, ROB: 32, Depth: 12,
		PredKB: 17, RAS: 64, IntUnits: 2, FPUnits: 1, MemUnits: 1, LoadLat: 1, ClockGHz: 2}
	// Shader is modeled on a GPU shader core: scalar, in-order, with a
	// minimal predictor and no full forwarding network.
	Shader = Config{Name: "Shader", Width: 1, Window: 1, ROB: 32, Depth: 8,
		PredKB: 1, RAS: 8, IntUnits: 1, FPUnits: 1, MemUnits: 1, LoadLat: 1,
		ExtraLat: 2, ClockGHz: 2}
	// Limit is the unrealistic ILP limit-study core.
	Limit = Config{Name: "Limit", Width: 128, Window: 128, ROB: 512, Depth: 14,
		PredKB: 64, RAS: 64, IntUnits: 128, FPUnits: 128, MemUnits: 128, LoadLat: 1, ClockGHz: 2}
	// CGCore is the coarse-grain core (Table 5): like Desktop but with a
	// 2-cycle L1.
	CGCore = Config{Name: "CG", Width: 4, Window: 32, ROB: 96, Depth: 14,
		PredKB: 17, RAS: 64, IntUnits: 4, FPUnits: 2, MemUnits: 2, LoadLat: 2, ClockGHz: 2}
)

// FGConfigs lists the fine-grain design points in the paper's order.
var FGConfigs = []Config{Desktop, Console, Shader, Limit}

// latency returns the execution latency of an op.
func (c *Config) latency(op Op) int {
	base := 1
	switch op {
	case IntALU, Branch, Call, Ret, Store:
		base = 1
	case IntMul:
		base = 3
	case FPAdd, FPCmp:
		base = 2
	case FPMul:
		base = 4
	case FPDiv:
		base = 12
	case FPSqrt:
		base = 16
	case Load:
		base = c.LoadLat
	}
	return base + c.ExtraLat
}

// Result reports one simulation run.
type Result struct {
	Instructions uint64
	Cycles       uint64
	Mispredicts  uint64
	Branches     uint64
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Core is one core instance with its predictor state.
type Core struct {
	Cfg  Config
	pred *bpred.YAGS
	ras  *bpred.RAS
	// PerfectBP disables the predictor (the paper's ideal-BP experiment,
	// which improved Narrowphase by 30%).
	PerfectBP bool
}

// New builds a core.
func New(cfg Config) *Core {
	return &Core{
		Cfg:  cfg,
		pred: bpred.NewYAGS(cfg.PredKB),
		ras:  bpred.NewRAS(cfg.RAS),
	}
}

type winEntry struct {
	idx int // trace index
}

// Run simulates the trace to completion and returns timing results.
// The trace is an in-order instruction stream; wrong-path work is
// modeled by the fetch redirect penalty plus a squash cost proportional
// to the speculation depth at resolution.
func (c *Core) Run(trace []Instr) Result {
	n := len(trace)
	done := make([]uint64, n) // completion cycle per instruction
	for i := range done {
		done[i] = ^uint64(0)
	}
	var (
		now         uint64
		fetchIdx    int
		retireIdx   int
		window      []winEntry
		inROB       int
		fetchStall  uint64 // no fetch before this cycle
		mispredicts uint64
		branches    uint64
		// pendingBr is the trace index of a fetched mispredicted branch
		// that has not yet resolved (-1 = none). Fetch halts behind it.
		pendingBr = -1
	)

	cfg := &c.Cfg
	for retireIdx < n {
		now++
		if now > uint64(n)*200+10000 {
			break // safety valve: deadlock guard for degenerate configs
		}

		// Retire in order.
		retired := 0
		for retireIdx < n && retired < cfg.Width {
			if done[retireIdx] <= now {
				retireIdx++
				inROB--
				retired++
			} else {
				break
			}
		}

		// Issue from the window (oldest first).
		intB, fpB, memB := 0, 0, 0
		issued := 0
		for wi := 0; wi < len(window) && issued < cfg.Width; wi++ {
			e := window[wi]
			ins := &trace[e.idx]
			// FU availability.
			switch {
			case ins.Op.IsFP():
				if fpB >= cfg.FPUnits {
					continue
				}
			case ins.Op.IsMem():
				if memB >= cfg.MemUnits {
					continue
				}
			default:
				if intB >= cfg.IntUnits {
					continue
				}
			}
			// Dependencies resolved?
			ready := true
			for _, src := range [2]uint16{ins.Src1, ins.Src2} {
				if src == 0 {
					continue
				}
				p := e.idx - int(src)
				if p >= 0 && done[p] > now {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			lat := cfg.latency(ins.Op)
			done[e.idx] = now + uint64(lat)
			switch {
			case ins.Op.IsFP():
				fpB++
			case ins.Op.IsMem():
				memB++
			default:
				intB++
			}
			issued++
			// Mispredicted branch resolution: redirect after execute,
			// plus pipeline refill and a squash cost that grows with the
			// number of in-flight (speculative) instructions.
			if e.idx == pendingBr {
				squash := uint64(len(window)) / uint64(cfg.Width*2+1)
				fetchStall = done[e.idx] + uint64(cfg.Depth) + squash
				pendingBr = -1
			}
			// Remove from window.
			window = append(window[:wi], window[wi+1:]...)
			wi--
		}

		// Fetch.
		if now >= fetchStall && pendingBr < 0 {
			for f := 0; f < cfg.Width && fetchIdx < n; f++ {
				if len(window) >= cfg.Window || inROB >= cfg.ROB {
					break
				}
				ins := &trace[fetchIdx]
				window = append(window, winEntry{idx: fetchIdx})
				inROB++
				if ins.Op.IsBranch() {
					branches++
					mis := false
					if !c.PerfectBP {
						switch ins.Op {
						case Call:
							c.ras.Push(uint64(ins.PC) + 4)
							mis = c.pred.Update(uint64(ins.PC), ins.Taken)
						case Ret:
							_, ok := c.ras.Pop()
							mis = !ok
						default:
							mis = c.pred.Update(uint64(ins.PC), ins.Taken)
						}
					}
					if mis {
						mispredicts++
						pendingBr = fetchIdx
						fetchIdx++
						break // fetch halts behind the mispredict
					}
				}
				fetchIdx++
			}
		}
	}

	return Result{
		Instructions: uint64(n),
		Cycles:       now,
		Mispredicts:  mispredicts,
		Branches:     branches,
	}
}
