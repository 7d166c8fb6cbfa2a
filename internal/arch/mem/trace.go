package mem

import (
	"github.com/parallax-arch/parallax/internal/phys/joint"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// This file synthesizes per-phase memory reference streams from a
// recorded step profile (World.RecordDetail must have been set when the
// step ran). The streams visit the actual entities the engine touched,
// at 64-byte block granularity, in the order the phase algorithms visit
// them — so cache behaviour (working sets, eviction between phases,
// thread thrashing) emerges from real workload structure.

// BroadphaseTrace emits the broad-phase reference stream: the sweep
// structure update (endpoints of every enabled geom, read-modify-write),
// the sort pass, and the pair output writes.
func (l *Layout) BroadphaseTrace(w *world.World, prof *world.StepProfile, s Stream) {
	// AABB refresh: read every geom's shape state, write its box.
	for gi, g := range w.Geoms {
		if !g.Enabled() {
			continue
		}
		touch(s, l.GeomAddr[gi], GeomBytes, true)
	}
	// Endpoint array sweep: one pass reading, plus sort work touching
	// endpoints proportional to the measured sort ops.
	n := prof.Broad.Geoms
	touch(s, l.SweepBase, n*EndpointBytes, false)
	sortTouches := prof.Broad.SortOps
	for i := 0; i < sortTouches; i++ {
		// Sort exchanges exhibit locality: consecutive endpoints.
		a := l.SweepBase + uint64((i*2)%max(n*EndpointBytes, 1))
		s(a&^63, true)
	}
	// Pair output writes.
	touch(s, l.PairBase, len(prof.PairList)*PairBytes, true)
}

// NarrowphaseTrace emits the narrow-phase stream: for every candidate
// pair, read both geoms (shape data) and their bodies (poses), and write
// the produced contacts.
func (l *Layout) NarrowphaseTrace(w *world.World, prof *world.StepProfile, s Stream) {
	for _, pr := range prof.PairList {
		l.GeomFootprint(w, pr.A, s, false)
		l.GeomFootprint(w, pr.B, s, false)
	}
	touch(s, l.ContactBase, len(prof.ContactGeoms)*ContactBytes, true)
}

// IslandCreationTrace emits the island-creation stream: a serial sweep
// over all bodies and joints, union-find parent-chain walks, and contact
// endpoint reads (paper: "Island Creation uses object and joint data to
// create islands").
func (l *Layout) IslandCreationTrace(w *world.World, prof *world.StepProfile, s Stream) {
	for bi, b := range w.Bodies {
		if !b.Enabled {
			continue
		}
		touch(s, l.BodyAddr[bi], BodyBytes, false)
	}
	for ji := range w.Joints {
		touch(s, l.JointAddr[ji], l.JointSize[ji], false)
	}
	for _, cg := range prof.ContactGeoms {
		touch(s, l.GeomAddr[cg[0]], 64, false)
		touch(s, l.GeomAddr[cg[1]], 64, false)
	}
	// DSU walks: measured parent-chain steps, plus one write per body.
	n := len(w.Bodies)
	for i := 0; i < prof.FindSteps; i++ {
		a := l.DSUBase + uint64((i*7)%max(n*DSUBytes, 1))
		s(a&^63, false)
	}
	touch(s, l.DSUBase, n*DSUBytes, true)
}

// IslandSweepSteady emits the per-iteration working set of island
// processing: the bodies' velocity state, which every relaxation sweep
// reads and writes. The constraint rows themselves are built once per
// step and streamed (IslandSweep); the solver's iterations hit the
// row data via the bodies, which is why Island Processing is "relatively
// insensitive to L2 cache scaling" (paper Fig 4b).
func (l *Layout) IslandSweepSteady(w *world.World, prof *world.StepProfile, s Stream) {
	for i := range prof.IslandBodies {
		for _, bi := range prof.IslandBodies[i] {
			touch(s, l.BodyAddr[bi], BodyBytes, true)
		}
	}
}

// IslandSweep emits the row-construction pass of island processing: for
// each island, each constraint row is built and written once and its
// two bodies' velocities are updated. Callers model the solver's
// iterations as one IslandSweep (cold) plus iters-1 IslandSweepSteady
// passes.
func (l *Layout) IslandSweep(w *world.World, prof *world.StepProfile, s Stream) {
	rowAddr := l.RowBase
	for i := range prof.IslandBodies {
		// Rows from the island's joints...
		for _, ji := range prof.IslandRowsOf[i] {
			nr := w.Joints[ji].NumRows()
			touch(s, l.JointAddr[ji], l.JointSize[ji], false)
			for r := 0; r < nr; r++ {
				touch(s, rowAddr, RowBytes, true)
				rowAddr += RowBytes
			}
		}
		// ...and the island's bodies are updated repeatedly.
		for _, bi := range prof.IslandBodies[i] {
			touch(s, l.BodyAddr[bi], BodyBytes, true)
		}
	}
	// Contact rows live in the per-step row arena.
	touch(s, rowAddr, len(prof.ContactGeoms)*joint.RowsPerContact*RowBytes, true)
}

// ClothSweep emits one relaxation sweep of the cloth phase: every
// particle of every cloth is read and written.
func (l *Layout) ClothSweep(w *world.World, prof *world.StepProfile, s Stream) {
	for ci := range l.ClothBase {
		touch(s, l.ClothBase[ci], l.ClothVerts[ci]*ParticleBytes, true)
	}
}
