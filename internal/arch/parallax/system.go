package parallax

import (
	"github.com/parallax-arch/parallax/internal/arch/area"
	"github.com/parallax-arch/parallax/internal/arch/cpu"
	"github.com/parallax-arch/parallax/internal/arch/kernels"
	"github.com/parallax-arch/parallax/internal/arch/link"
)

// System is a full ParallAX configuration (Fig 8). Model 1 places the
// FG pool on the same die as the CG cores (on-chip mesh); Model 2 puts
// the whole physics pipeline on a discrete accelerator reached over
// PCIe, with dedicated physics memory.
type System struct {
	// CGCores and L2MB configure the coarse-grain side. The 12MB
	// partitioned configuration is the paper's choice.
	CGCores     int
	L2MB        int
	Partitioned bool
	// FG configures the fine-grain pool.
	FGType  cpu.Config
	FGCount int
	// Link connects CG to FG cores.
	Link link.Kind
	// Model2 adds the per-frame world-state transfer over PCIe
	// (section 8.3): positions/orientations in, results out.
	Model2 bool
}

// Reference returns the paper's proposed configuration: 4 CG cores,
// 12MB partitioned L2, 150 shader-class FG cores on-chip.
func Reference() System {
	return System{
		CGCores: 4, L2MB: 12, Partitioned: true,
		FGType: cpu.Shader, FGCount: 150, Link: link.OnChip,
	}
}

// Breakdown is a full-system frame evaluation.
type Breakdown struct {
	// SerialTime covers Broadphase + Island Creation on one CG core.
	SerialTime float64
	// CGParallelTime is the CG residue of the parallel phases (task
	// distribution, small islands, non-farmable work).
	CGParallelTime float64
	// FGTime is the fine-grain pool's compute + exposed communication.
	FGTime float64
	// Model2Transfer is the per-frame state shuttle for Model 2.
	Model2Transfer float64
	// AreaMM2 is the configuration's estimated die area.
	AreaMM2 float64
	FG      FGResult
	CG      CGResult
}

// Total returns the frame time.
func (b Breakdown) Total() float64 {
	return b.SerialTime + b.CGParallelTime + b.FGTime + b.Model2Transfer
}

// FPS returns the achieved frame rate.
func (b Breakdown) FPS() float64 {
	t := b.Total()
	if t <= 0 {
		return 0
	}
	return 1 / t
}

// MeetsRealTime reports whether the configuration sustains 30 FPS.
func (b Breakdown) MeetsRealTime() bool { return b.Total() <= FrameBudget }

// Evaluate runs the full-system model for one workload.
func (wl *Workload) Evaluate(sys System) Breakdown {
	var b Breakdown
	cg := wl.CGFrameTime(MemConfig{
		Cores: sys.CGCores, L2MB: sys.L2MB, Partitioned: sys.Partitioned,
		Threads: sys.CGCores, DedicatedPhase: -1,
	})
	b.CG = cg
	b.SerialTime = cg.Serial()

	// CG residue of the parallel phases: the non-farmable fraction runs
	// on the CG cores exactly as in the CG-only model.
	for _, k := range kernels.FG {
		b.CGParallelTime += cg.PhaseTime[k] * (1 - k.FGShare())
	}

	if sys.FGCount > 0 {
		fg := wl.FGTime(sys.FGType, sys.FGCount, sys.Link)
		b.FG = fg
		b.FGTime = fg.Total()
	} else {
		// No FG pool: the farmable work also runs on CG cores.
		for _, k := range kernels.FG {
			b.CGParallelTime += cg.PhaseTime[k] * k.FGShare()
		}
	}

	if sys.Model2 {
		b.Model2Transfer = wl.Model2TransferTime()
	}
	b.AreaMM2 = area.SystemMM2(sys.CGCores, sys.L2MB, sys.FGType, sys.FGCount)
	return b
}

// Model2TransferTime is the per-frame communication of the discrete
// accelerator (section 8.3): "only the position and orientation (60B)
// of each object, position (12B) of each particle, and position (12B)
// of mesh vertices are communicated at the beginning and end of a
// frame."
func (wl *Workload) Model2TransferTime() float64 {
	objects := 0
	for _, bd := range wl.World.Bodies {
		if bd.Enabled && bd.InvMass > 0 {
			objects++
		}
	}
	verts := 0
	for _, c := range wl.World.Cloths {
		verts += c.NumVertices()
	}
	bytes := objects*60 + verts*12
	pcie := link.For(link.PCIe)
	return pcie.TransferTime(bytes) * 2 // in at frame start, out at end
}

// PaperModel2Example reproduces the section 8.3 sanity number: 1,000
// objects, 10,000 particles and 5,000 mesh vertices over PCIe.
func PaperModel2Example() float64 {
	bytes := 1000*60 + 10000*12 + 5000*12
	return link.For(link.PCIe).TransferTime(bytes) * 2
}
