// Package mem models the engine's memory layout for the architecture
// simulator: every world entity gets a deterministic simulated address
// using the paper's measured footprints ("The memory required per object
// and geom is 412B and 116B respectively. The memory required per joint
// varies between 148B to 392B depending on the type"), and reference
// streams over those addresses are synthesized per phase from the
// engine's recorded step profiles.
package mem

import (
	"github.com/parallax-arch/parallax/internal/phys/joint"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// Structure footprints in bytes (paper section 6.1 and 8.3).
const (
	BodyBytes     = 412 // rigid body ("object")
	GeomBytes     = 116 // collision shape state
	JointMinBytes = 148 // simplest joint (ball)
	JointMaxBytes = 392 // most complex joint (contact group/hinge2)
	ContactBytes  = 240 // contact joint + manifold entry
	RowBytes      = 160 // one solver constraint row
	ParticleBytes = 40  // cloth vertex: pos, prev, invmass (sec 8.3: 12B positions communicated)
	PairBytes     = 8   // broad-phase pair entry
	DSUBytes      = 8   // union-find parent+rank entry
	EndpointBytes = 16  // sweep-and-prune endpoint entry
)

// JointBytes returns the footprint of a joint by type, within the
// paper's 148-392B range.
func JointBytes(j joint.Joint) int {
	switch jj := j.(type) {
	case *joint.Breakable:
		return JointBytes(jj.Joint) + 32
	case *joint.Ball:
		return 148
	case *joint.Hinge:
		return 220
	case *joint.Slider:
		return 260
	case *joint.Fixed:
		return 392
	default:
		return 200
	}
}

// Region bases keep the heaps of different structure classes apart, as
// separate mallocs would.
const (
	baseBodies    = 0x0000_0000_1000_0000
	baseGeoms     = 0x0000_0000_3000_0000
	baseJoints    = 0x0000_0000_5000_0000
	baseParticles = 0x0000_0000_7000_0000
	basePairs     = 0x0000_0000_9000_0000
	baseContacts  = 0x0000_0000_A000_0000
	baseRows      = 0x0000_0000_B000_0000
	baseDSU       = 0x0000_0000_C000_0000
	baseSweep     = 0x0000_0000_D000_0000
	baseThreads   = 0x0000_0001_0000_0000
)

// Layout assigns simulated addresses to a world's entities in creation
// order (mirroring real allocation order, which gives the same spatial
// locality a real engine heap would have).
type Layout struct {
	BodyAddr  []uint64
	GeomAddr  []uint64
	JointAddr []uint64
	JointSize []int
	// ClothBase[i] is the base address of cloth i's particle array.
	ClothBase  []uint64
	ClothVerts []int
	// Per-step scratch regions.
	PairBase    uint64
	ContactBase uint64
	RowBase     uint64
	DSUBase     uint64
	SweepBase   uint64
	// ThreadBase(t) regions model per-worker OS/heap state.
}

// NewLayout builds the address map for a world.
func NewLayout(w *world.World) *Layout {
	l := &Layout{
		PairBase:    basePairs,
		ContactBase: baseContacts,
		RowBase:     baseRows,
		DSUBase:     baseDSU,
		SweepBase:   baseSweep,
	}
	addr := uint64(baseBodies)
	for range w.Bodies {
		l.BodyAddr = append(l.BodyAddr, addr)
		addr += BodyBytes
	}
	addr = baseGeoms
	for range w.Geoms {
		l.GeomAddr = append(l.GeomAddr, addr)
		addr += GeomBytes
	}
	addr = baseJoints
	for _, j := range w.Joints {
		sz := JointBytes(j)
		l.JointAddr = append(l.JointAddr, addr)
		l.JointSize = append(l.JointSize, sz)
		addr += uint64(sz)
	}
	addr = baseParticles
	for _, c := range w.Cloths {
		l.ClothBase = append(l.ClothBase, addr)
		l.ClothVerts = append(l.ClothVerts, c.NumVertices())
		addr += uint64(c.NumVertices() * ParticleBytes)
	}
	return l
}

// ThreadBase returns the base address of worker thread t's private
// region (stack, allocator arenas, kernel bookkeeping).
func ThreadBase(t int) uint64 {
	return baseThreads + uint64(t)*0x0100_0000
}

// Stream receives memory references in program order. Implementations
// are typically cache models.
type Stream func(addr uint64, write bool)

// touch emits refs covering [base, base+size) at block granularity.
func touch(s Stream, base uint64, size int, write bool) {
	const block = 64
	end := base + uint64(size)
	for a := base &^ (block - 1); a < end; a += block {
		s(a, write)
	}
}

// GeomFootprint emits the references for reading one geom and (if
// dynamic) its body.
func (l *Layout) GeomFootprint(w *world.World, gi int32, s Stream, write bool) {
	touch(s, l.GeomAddr[gi], GeomBytes, write)
	if b := w.Geoms[gi].Body; b >= 0 {
		touch(s, l.BodyAddr[b], BodyBytes, false)
	}
}

// SizeOfWorld returns the total resident bytes of the world's persistent
// structures — the theoretical working set.
func (l *Layout) SizeOfWorld() int {
	total := len(l.BodyAddr)*BodyBytes + len(l.GeomAddr)*GeomBytes
	for _, s := range l.JointSize {
		total += s
	}
	for _, v := range l.ClothVerts {
		total += v * ParticleBytes
	}
	return total
}
