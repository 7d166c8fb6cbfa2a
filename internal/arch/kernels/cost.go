package kernels

import (
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// CostModel converts the engine's per-phase work counters into dynamic
// instruction counts. The per-unit costs are calibrated so that the
// suite's per-frame instruction totals land in the paper's Table 3
// range (tens to hundreds of millions of instructions per frame), with
// the fine-grain kernels' per-iteration cost anchored to their static
// sizes.
type CostModel struct {
	// Broad phase (serial).
	PerGeom        float64
	PerAABBUpdate  float64
	PerSortOp      float64
	PerOverlapTest float64
	// Narrow phase.
	PerPair     float64
	PerPrimTest float64
	PerTriTest  float64
	// Island creation (serial).
	PerBody     float64
	PerJointGen float64
	PerFindStep float64
	PerContact  float64
	// Island processing: one constraint-row relaxation.
	PerRowUpdate float64
	// Cloth.
	PerVertexUpdate     float64
	PerConstraintUpdate float64
	PerCollisionTest    float64
	PerRayCast          float64
	// Fixed per-step overhead (phase setup, task distribution).
	PerStepOverhead float64
}

// DefaultCost is the calibrated model.
var DefaultCost = CostModel{
	PerGeom:        45,
	PerAABBUpdate:  60,
	PerSortOp:      14,
	PerOverlapTest: 22,

	PerPair:     300,
	PerPrimTest: 5 * 277, // ~5 kernel iterations per primitive test
	PerTriTest:  2 * 277,

	PerBody:     40,
	PerJointGen: 30,
	PerFindStep: 12,
	PerContact:  18,

	PerRowUpdate: 420, // the 177-instr kernel plus amortized row setup and
	// force gathering, calibrated so frame totals land in Table 3's range

	PerVertexUpdate:     500, // 221-instr kernel plus per-iteration collision
	PerConstraintUpdate: 90,  // handling folded in (the paper's engine collides
	PerCollisionTest:    250, // cloth every relaxation pass; this engine once
	PerRayCast:          450, // per step, so per-unit costs absorb the delta)

	PerStepOverhead: 40000,
}

// PerPhase holds one value per phase — instructions or seconds of one
// step or frame.
type PerPhase [NumKernels]float64

// Total returns the sum over all five phases.
func (p PerPhase) Total() float64 {
	t := 0.0
	for _, v := range p {
		t += v
	}
	return t
}

// Serial returns the sum over the serial phases (Broadphase + Island
// Creation).
func (p PerPhase) Serial() float64 {
	return p[Broad] + p[IslandGen]
}

// InstrCounts converts one step profile into per-phase instruction
// counts.
func (m *CostModel) InstrCounts(prof *world.StepProfile) PerPhase {
	var p PerPhase
	b := prof.Broad
	p[Broad] = float64(b.Geoms)*m.PerGeom +
		float64(b.AABBUpdates)*m.PerAABBUpdate +
		float64(b.SortOps)*m.PerSortOp +
		float64(b.OverlapTests)*m.PerOverlapTest +
		m.PerStepOverhead

	p[Narrow] = float64(prof.Pairs)*m.PerPair +
		float64(prof.Narrow.PrimTests)*m.PerPrimTest +
		float64(prof.Narrow.TriTests)*m.PerTriTest

	bodies := prof.BodiesIntegrated
	joints := 0
	for _, is := range prof.Islands {
		joints += is.Joints
	}
	p[IslandGen] = float64(bodies)*m.PerBody +
		float64(joints)*m.PerJointGen +
		float64(prof.FindSteps)*m.PerFindStep +
		float64(prof.Contacts)*m.PerContact +
		m.PerStepOverhead/2

	p[Island] = float64(prof.Solver.RowUpdates)*m.PerRowUpdate +
		float64(bodies)*120 // integration cost per body

	c := prof.Cloth
	p[Cloth] = float64(c.VertexUpdates)*m.PerVertexUpdate +
		float64(c.ConstraintUpdates)*m.PerConstraintUpdate +
		float64(c.CollisionTests)*m.PerCollisionTest +
		float64(c.RayCasts)*m.PerRayCast
	return p
}

// FrameInstr sums the per-phase instruction counts over a frame.
func (m *CostModel) FrameInstr(f *world.FrameProfile) PerPhase {
	var total PerPhase
	for i := range f.Steps {
		p := m.InstrCounts(&f.Steps[i])
		for ph := range total {
			total[ph] += p[ph]
		}
	}
	return total
}

// FGShare returns the fraction of the phase's instructions that live in
// its fine-grain kernel (farmable to FG cores). Serial phases farm
// nothing; the parallel phases are dominated by their kernels with a
// coarse-grain residue (task setup, data packing, small islands).
func (k Kernel) FGShare() float64 {
	switch k {
	case Narrow:
		return 0.90
	case Island:
		return 0.85
	case Cloth:
		return 0.88
	default:
		return 0
	}
}
