// Package world orchestrates the physics engine's five computational
// phases (paper Figure 1):
//
//	Broad-phase -> Narrow-phase -> Island Creation -> Island Processing -> Cloth
//
// All phases are serialized with respect to each other. Inside them,
// everything but the broad phase's sort-order update and merge and
// Island Creation's union-find runs on a work queue of persistent
// worker goroutines (the paper's pthreads + persistent worker threads):
// AABB refresh, sweep, narrow phase, island edges, island solves,
// integration, pose sync and cloths. The engine also implements the
// paper's game-physics extensions: explosions (blast-radius spheres),
// pre-fractured objects that shatter into debris, breakable joints, and
// cloth contact lists.
package world

import (
	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/body"
	"github.com/parallax-arch/parallax/internal/phys/broadphase"
	"github.com/parallax-arch/parallax/internal/phys/cloth"
	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/joint"
	"github.com/parallax-arch/parallax/internal/phys/m3"
	"github.com/parallax-arch/parallax/internal/phys/solver"
)

// SmallIslandDOF is the threshold below which islands are processed on
// the main thread instead of the work queue (paper section 3.2: "Only
// islands with more than 25 degrees-of-freedom removed are inserted into
// the work-queue").
const SmallIslandDOF = 25

// ExplosiveSpec configures an explosive geom: on contact the object is
// replaced by a blast sphere of the given radius that lives for Duration
// seconds and applies Impulse (N*s, scaled by proximity) to bodies it
// touches.
type ExplosiveSpec struct {
	Radius   float64
	Duration float64
	Impulse  float64
}

// Blast is an active blast volume. The shockwave imparts its impulse to
// each body (and each cloth) at most once over the blast's lifetime.
type Blast struct {
	Geom      int32
	Remaining float64
	Impulse   float64
	hit       map[int32]bool // body index -> shockwave already applied
	hitCloth  map[int32]bool // cloth index -> shockwave already applied
}

// FractureGroup links a breakable parent geom to its pre-created debris.
// LocalPos/LocalRot hold each debris piece's pose relative to the parent
// so pieces can be placed correctly however far the parent has moved.
type FractureGroup struct {
	Parent   int32
	Debris   []int32
	LocalPos []m3.Vec
	LocalRot []m3.Quat
	Broken   bool
}

// World holds the complete simulation state.
type World struct {
	// Gravity applied to every dynamic body (m/s^2).
	Gravity m3.Vec
	// Dt is the simulation time step (the paper uses 0.01 s).
	Dt float64
	// ERP and CFM are the global constraint parameters.
	ERP, CFM float64
	// EnableSleep lets idle bodies go to sleep. Off by default: the
	// benchmark scenes are measured at full activity.
	EnableSleep bool
	// RecordDetail makes Step record the pair list, contact endpoints
	// and island membership in the profile (for the architecture model).
	RecordDetail bool
	// WarmStart carries contact impulses across steps (persistent
	// manifolds), letting the solver start near last step's solution.
	// Off by default to match the paper's plain iterative relaxation.
	WarmStart bool

	Bodies []*body.Body
	Geoms  []*geom.Geom
	Joints []joint.Joint
	Cloths []*cloth.Cloth

	// Broad is the broad-phase algorithm (sweep-and-prune by default).
	Broad broadphase.Interface
	// Solver runs the per-island LCP (20 iterations by default).
	Solver *solver.Solver

	// threads is the worker count for the parallel phases (1 = serial).
	// SetThreads is its only setter, so the pool and the trace lanes
	// always match it.
	threads int

	// Explosives maps geom index to its blast behaviour.
	Explosives map[int32]ExplosiveSpec
	// Blasts are the currently active blast volumes.
	Blasts []Blast
	// blastOfGeom indexes active blasts by their volume geom id, so
	// resolving a blast hit is O(1) instead of a scan over w.Blasts.
	blastOfGeom map[int32]int32
	// Fractures lists the registered prefractured objects.
	Fractures      []FractureGroup
	fractureOfGeom map[int32]int32 // parent geom -> fracture index

	// clothProxy maps cloth index -> proxy geom index.
	clothProxy []int32
	// clothProxyShape is each proxy's box, held by pointer so the
	// per-step resize mutates it in place instead of re-boxing the Shape
	// interface (which would allocate every step).
	clothProxyShape []*geom.Box
	// clothContacts is the per-step contact list per cloth.
	clothContacts [][]int32

	// Time is the accumulated simulated time.
	Time float64

	// Profile holds the instrumentation for the most recent Step.
	Profile StepProfile

	pool     *pool
	pairBuf  []broadphase.Pair
	bodyGeom []int32 // body index -> geom index (-1 once consumed)
	// geomFree lists disabled geom slots (consumed explosives, expired
	// blast volumes) available for reuse, so long-running Explosions/Mix
	// scenes don't grow w.Geoms without bound. geomFreeStaged collects
	// the slots freed during the current step; they migrate to geomFree
	// only when the step completes, so nothing that still references a
	// geom id this step (cloth contact lists, pending events) can see
	// the slot repurposed mid-step.
	geomFree       []int32
	geomFreeStaged []int32
	// warm holds last step's solved contact impulses, in contact order;
	// see warmEntry.
	warm []warmEntry

	// Observability sink (SetObs): span tracer lanes, per-step metric
	// harvesting. All nil/zero when tracing is off — the hot path pays
	// only nil checks.
	trace    *obs.Tracer
	metrics  *obs.Registry
	obsLabel string
	obsLanes []*obs.Lane
	spans    [numSpans]obs.SpanID
	met      stepMetrics

	// Live telemetry (SetSeries/SetHealth): the per-step series rings,
	// the anomaly detector, the pre-registered channel IDs, the
	// telemetry step ordinal, and the previous cumulative span totals of
	// the step phases, indexed by span (recordTelemetry differences them
	// into per-step durations). All nil/zero when telemetry is off.
	series      *obs.Series
	health      *obs.Health
	ser         stepSeries
	telStep     int64
	prevPhaseNs [numSpans]int64

	// scratch is the reusable per-step arena; see frameScratch.
	scratch frameScratch
	// The two callbacks handed to packages that cannot import world (the
	// island builder's active-body predicate, cloth pinning's pose
	// lookup), bound once at construction: creating a closure or method
	// value per step would allocate.
	activeFn func(int32) bool
	poseFn   func(int32) (m3.Vec, m3.Quat)

	// prevPairs and prevEdges carry the previous step's broad-phase pair
	// and island-edge counts, pre-sizing this step's buffers so the
	// steps after a snapshot Restore don't regrow them incrementally.
	prevPairs, prevEdges int
}

// New returns an empty world with the paper's default parameters:
// 0.01 s steps, 20 solver iterations, sweep-and-prune broad phase,
// single-threaded.
func New() *World {
	w := &World{
		Gravity:        m3.V(0, -9.81, 0),
		Dt:             0.01,
		ERP:            0.2,
		CFM:            1e-9,
		Broad:          broadphase.NewSweepAndPrune(),
		Solver:         solver.New(),
		threads:        1,
		Explosives:     make(map[int32]ExplosiveSpec),
		fractureOfGeom: make(map[int32]int32),
		blastOfGeom:    make(map[int32]int32),
	}
	w.poseFn = w.bodyPose
	w.activeFn = w.bodySolvable
	return w
}

// SetThreads sets the worker count for the parallel phases, rebuilding
// the worker pool (the calling goroutine is worker 0, so n threads
// start n-1 pool workers) and growing the trace lanes if tracing is
// attached. Values below 1 are clamped to 1 (serial, no pool). Call
// SetThreads(1) to stop the pool of a world you are done with.
func (w *World) SetThreads(n int) {
	w.threads = max(n, 1)
	if w.pool != nil && w.pool.n != w.threads-1 {
		w.pool.close()
		w.pool = nil
	}
	if w.pool == nil && w.threads > 1 {
		w.pool = newPool(w.threads - 1)
	}
	if w.trace != nil {
		w.growObsLanes()
	}
}

// AddBody creates a dynamic body with a single collision shape and
// returns (bodyIndex, geomIndex). A non-positive mass creates an
// immovable (kinematic) body.
func (w *World) AddBody(s geom.Shape, mass float64, pos m3.Vec, rot m3.Quat, flags geom.Flag, group int32) (int32, int32) {
	b := body.New(mass, s.Inertia(mass))
	b.ID = len(w.Bodies)
	b.Pos = pos
	b.Rot = rot
	w.Bodies = append(w.Bodies, b)

	g := &geom.Geom{
		ID:        len(w.Geoms),
		Shape:     s,
		Pos:       pos,
		Rot:       rot.Mat(),
		Body:      b.ID,
		OffsetRot: m3.QIdent,
		Flags:     flags,
		Group:     group,
	}
	g.UpdateAABB()
	w.Geoms = append(w.Geoms, g)
	w.bodyGeom = append(w.bodyGeom, int32(g.ID))
	return int32(b.ID), int32(g.ID)
}

// AddStatic creates immobile collision geometry (terrain, obstacles) and
// returns its geom index. Static objects participate in collision
// detection but not in forward stepping (paper Table 2).
func (w *World) AddStatic(s geom.Shape, pos m3.Vec, rot m3.Quat) int32 {
	g := &geom.Geom{
		ID:    len(w.Geoms),
		Shape: s,
		Pos:   pos,
		Rot:   rot.Mat(),
		Body:  -1,
		Flags: geom.FlagStatic,
	}
	g.UpdateAABB()
	w.Geoms = append(w.Geoms, g)
	return int32(g.ID)
}

// AddJoint registers a joint and returns its index.
func (w *World) AddJoint(j joint.Joint) int32 {
	w.Joints = append(w.Joints, j)
	return int32(len(w.Joints) - 1)
}

// AddCloth registers a cloth object and creates its bounding-volume
// proxy geom, returning the cloth index.
func (w *World) AddCloth(c *cloth.Cloth) int32 {
	idx := int32(len(w.Cloths))
	w.Cloths = append(w.Cloths, c)
	c.UpdateBox()
	sh := &geom.Box{Half: c.Box.Extent().Scale(0.5)}
	g := &geom.Geom{
		ID:    len(w.Geoms),
		Shape: sh,
		Pos:   c.Box.Center(),
		Rot:   m3.Ident,
		Body:  -1,
		Flags: geom.FlagCloth,
		Aux:   idx,
	}
	g.UpdateAABB()
	w.Geoms = append(w.Geoms, g)
	w.clothProxy = append(w.clothProxy, int32(g.ID))
	w.clothProxyShape = append(w.clothProxyShape, sh)
	w.clothContacts = append(w.clothContacts, nil)
	return idx
}

// MarkExplosive flags a geom as explosive with the given blast.
func (w *World) MarkExplosive(geomIdx int32, spec ExplosiveSpec) {
	w.Geoms[geomIdx].Flags |= geom.FlagExplosive
	w.Explosives[geomIdx] = spec
}

// RegisterFracture marks parent as prefractured with the given debris
// geoms, capturing each debris piece's current pose relative to the
// parent. Debris geoms (and their bodies) are disabled until the parent
// breaks; they must have been created with FlagDebris and then disabled.
func (w *World) RegisterFracture(parent int32, debris []int32) {
	w.Geoms[parent].Flags |= geom.FlagPrefractured
	pg := w.Geoms[parent]
	pPos, pRot := pg.Pos, m3.QIdent
	if pg.Body >= 0 {
		pPos, pRot = w.Bodies[pg.Body].Pos, w.Bodies[pg.Body].Rot
	}
	fr := FractureGroup{Parent: parent, Debris: debris}
	for _, di := range debris {
		dg := w.Geoms[di]
		dPos, dRot := dg.Pos, m3.QIdent
		if dg.Body >= 0 {
			dPos, dRot = w.Bodies[dg.Body].Pos, w.Bodies[dg.Body].Rot
		}
		fr.LocalPos = append(fr.LocalPos, pRot.Conj().Rotate(dPos.Sub(pPos)))
		fr.LocalRot = append(fr.LocalRot, pRot.Conj().Mul(dRot))
	}
	idx := int32(len(w.Fractures))
	w.Fractures = append(w.Fractures, fr)
	w.fractureOfGeom[parent] = idx
}

// DisableBodyGeom removes a body and its geom from simulation.
func (w *World) DisableBodyGeom(geomIdx int32) {
	g := w.Geoms[geomIdx]
	g.Flags |= geom.FlagDisabled
	if g.Body >= 0 {
		w.Bodies[g.Body].Enabled = false
	}
}

// EnableBodyGeom re-activates a body and its geom (used for debris). The
// body returns awake with cleared force/torque accumulators: anything
// accumulated before it was disabled is stale and must not leak into the
// body's first live step.
func (w *World) EnableBodyGeom(geomIdx int32) {
	g := w.Geoms[geomIdx]
	g.Flags &^= geom.FlagDisabled
	if g.Body >= 0 {
		b := w.Bodies[g.Body]
		b.Enabled = true
		b.Wake()
		b.ClearAccumulators()
	}
}

// params returns the per-step joint parameters.
func (w *World) params() joint.Params {
	return joint.Params{Dt: w.Dt, ERP: w.ERP, CFM: w.CFM}
}
