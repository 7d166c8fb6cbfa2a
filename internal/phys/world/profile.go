package world

import (
	"math"

	"github.com/parallax-arch/parallax/internal/phys/broadphase"
	"github.com/parallax-arch/parallax/internal/phys/cloth"
	"github.com/parallax-arch/parallax/internal/phys/narrowphase"
	"github.com/parallax-arch/parallax/internal/phys/solver"
)

// IslandStat summarizes one island for the profile. DOF is the number of
// constraint rows — the island's fine-grain task count.
type IslandStat struct {
	Bodies   int
	Joints   int
	Contacts int
	DOF      int
}

// StepProfile records everything the architecture model needs about one
// simulation step: phase-level work counters and the fine-grain task
// structure.
//
// The Islands and ClothVerts slices are backed by World-owned scratch
// storage that the next Step reuses; copy them (or go through
// FrameProfile.Add, which does) before stepping again if they must
// outlive the step. The RecordDetail slices (PairList, ContactGeoms,
// IslandBodies, IslandRowsOf) are freshly allocated every step and safe
// to retain.
type StepProfile struct {
	// Pairs is the candidate pair count out of the broad phase (the
	// narrow phase's fine-grain task count).
	Pairs int
	// Contacts is the number of contact points generated.
	Contacts int

	Broad  broadphase.Stats
	Narrow narrowphase.Stats
	// FindSteps counts union-find work in island creation.
	FindSteps int
	// Islands lists per-island statistics.
	Islands []IslandStat
	Solver  solver.Stats
	// Cloth aggregates cloth work across all cloth objects.
	Cloth cloth.Stats
	// ClothVerts lists each cloth's vertex count (its FG task count).
	ClothVerts []int

	// Event counters.
	Explosions  int
	FractureHit int
	JointBreaks int
	// BodiesIntegrated counts forward-stepped bodies.
	BodiesIntegrated int

	// Detail below is populated only when World.RecordDetail is set; the
	// architecture model uses it to synthesize memory reference streams
	// over the actual entities touched.
	PairList     []broadphase.Pair
	ContactGeoms [][2]int32
	IslandBodies [][]int32
	IslandRowsOf [][]int32 // per island: the joint ids contributing rows
}

// reset clears the profile for the next step, keeping the capacity of
// the scratch-backed slices.
func (p *StepProfile) reset() {
	islands := p.Islands[:0]
	clothVerts := p.ClothVerts[:0]
	*p = StepProfile{Islands: islands, ClothVerts: clothVerts}
}

// AppendIslandDOFs appends the per-island fine-grain task counts to dst
// and returns the extended slice. It allocates only when dst lacks
// capacity, so profiling loops can reuse one buffer across steps.
//
//paraxlint:noalloc
func (p *StepProfile) AppendIslandDOFs(dst []int) []int {
	for _, is := range p.Islands {
		dst = append(dst, is.DOF)
	}
	return dst
}

// Digest returns a 64-bit FNV-1a hash over the profile's counters and
// per-island statistics — everything the step records except the
// RecordDetail slices. Two steps that did identical work produce the
// same digest, so comparing digests step by step is how record-replay
// detects the first divergence between two runs.
func (p *StepProfile) Digest() uint64 {
	const offset = 14695981039346656037
	const prime = 1099511628211
	h := uint64(offset)
	mix := func(v uint64) {
		h = (h ^ v) * prime
	}
	mix(uint64(p.Pairs))
	mix(uint64(p.Contacts))
	mix(uint64(p.Broad.Geoms))
	mix(uint64(p.Broad.AABBUpdates))
	mix(uint64(p.Broad.SortOps))
	mix(uint64(p.Broad.OverlapTests))
	mix(uint64(p.Broad.PairsOut))
	mix(uint64(p.Narrow.PairsTested))
	mix(uint64(p.Narrow.ContactsOut))
	mix(uint64(p.Narrow.TriTests))
	mix(uint64(p.Narrow.PrimTests))
	mix(math.Float64bits(p.Narrow.DeepestDepth))
	mix(uint64(p.FindSteps))
	mix(uint64(len(p.Islands)))
	for i := range p.Islands {
		is := &p.Islands[i]
		mix(uint64(is.Bodies))
		mix(uint64(is.Joints))
		mix(uint64(is.Contacts))
		mix(uint64(is.DOF))
	}
	mix(uint64(p.Solver.Rows))
	mix(uint64(p.Solver.Iterations))
	mix(uint64(p.Solver.RowUpdates))
	mix(uint64(p.Cloth.VertexUpdates))
	mix(uint64(p.Cloth.ConstraintUpdates))
	mix(uint64(p.Cloth.CollisionTests))
	mix(uint64(p.Cloth.RayCasts))
	mix(uint64(len(p.ClothVerts)))
	for _, v := range p.ClothVerts {
		mix(uint64(v))
	}
	mix(uint64(p.Explosions))
	mix(uint64(p.FractureHit))
	mix(uint64(p.JointBreaks))
	mix(uint64(p.BodiesIntegrated))
	return h
}

// FrameProfile aggregates the steps of one rendered frame (the paper
// runs 3 simulation steps per 30 FPS frame).
type FrameProfile struct {
	Steps []StepProfile
}

// Add appends a step profile, deep-copying the scratch-backed slices so
// the frame record stays valid across subsequent steps.
func (f *FrameProfile) Add(s StepProfile) {
	if len(s.Islands) > 0 {
		s.Islands = append([]IslandStat(nil), s.Islands...)
	}
	if len(s.ClothVerts) > 0 {
		s.ClothVerts = append([]int(nil), s.ClothVerts...)
	}
	f.Steps = append(f.Steps, s)
}

// TotalPairs returns the frame's total narrow-phase task count.
func (f *FrameProfile) TotalPairs() int {
	n := 0
	for _, s := range f.Steps {
		n += s.Pairs
	}
	return n
}

// TotalContacts returns the frame's contact count.
func (f *FrameProfile) TotalContacts() int {
	n := 0
	for _, s := range f.Steps {
		n += s.Contacts
	}
	return n
}

// MaxIslands returns the worst-case per-step island count.
func (f *FrameProfile) MaxIslands() int {
	m := 0
	for _, s := range f.Steps {
		if len(s.Islands) > m {
			m = len(s.Islands)
		}
	}
	return m
}
