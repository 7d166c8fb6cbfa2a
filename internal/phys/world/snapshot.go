package world

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/parallax-arch/parallax/internal/phys/body"
	"github.com/parallax-arch/parallax/internal/phys/broadphase"
	"github.com/parallax-arch/parallax/internal/phys/cloth"
	"github.com/parallax-arch/parallax/internal/phys/enc"
	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/joint"
	"github.com/parallax-arch/parallax/internal/phys/m3"
	"github.com/parallax-arch/parallax/internal/phys/solver"
)

// World snapshot format: a versioned, byte-stable binary encoding of
// the complete dynamic simulation state, closed with a CRC-32 checksum.
// Byte-stable means the same state always encodes to the same bytes —
// floats are stored as IEEE-754 bit patterns and map contents in sorted
// key order — so snapshot bytes can be compared directly to test state
// equality, and Restore(Snapshot(w)) followed by N steps is
// bit-identical to stepping w uninterrupted, at any thread count, for a
// world on any broad phase the format carries.
//
// Captured: solver/world parameters and simulated time; bodies (pose,
// velocities, mass properties, force/torque accumulators, sleep state);
// geoms (shape, placement, flags, cached AABB) and the free-slot list;
// joints including Breakable fatigue and broken flags; explosive specs,
// active blasts with their already-hit sets, and fracture tables;
// cloths (particle positions and Verlet previous positions, pins,
// constraints); the warm-start impulse list; and, for a world on
// SweepAndPrune, its sweep order (the order's temporal coherence is
// observable in the step profile's SortOps counter).
//
// Intentionally excluded (execution configuration and derived scratch,
// not simulation state): the thread count, RecordDetail, the observability
// attachments, the last step's Profile, the worker pool, and the
// per-step scratch arena; and any other broad phase (IncrementalSAP,
// SpatialHash and BruteForce included), which is written as bpOther and
// left to the target world on restore. See DESIGN.md "State model &
// snapshot format".

// snapMagic identifies a world snapshot ("PAXW" little-endian).
const snapMagic = uint32('P') | uint32('A')<<8 | uint32('X')<<16 | uint32('W')<<24

// SnapshotVersion is the current snapshot format version. Restore
// rejects other versions: forward compatibility is out of scope, and a
// silent misparse would corrupt a simulation.
const SnapshotVersion = 1

// maxSnapshotIterations bounds the solver and cloth iteration counts
// Restore accepts. A step's cost is linear in them and nothing interrupts
// a step, so an unchecked count is a hang for every world that shares
// the restoring one's goroutine; 1024 is 25 times the largest the repo
// uses.
const maxSnapshotIterations = 1024

// Broad-phase tags in the snapshot encoding. Tags 1 to 3 are retired:
// files that carry them hold a spatial hash's cell size, brute force's
// empty section or an IncrementalSAP section, which this format no
// longer reads, so Restore must keep rejecting them as unknown and no
// new section may reuse the numbers.
const (
	bpSweep uint8 = 0
	bpOther uint8 = 255
)

// worldState is a snapshot's contents in file order, the one form both
// directions meet in. Snapshot gathers it from a live world (sharing
// the world's slices, which a storing walk only reads), and Restore
// loads and checks all of it before any of it is committed, so a
// corrupt snapshot never leaves the world half-restored.
type worldState struct {
	gravity                            m3.Vec
	dt, erp, cfm                       float64
	enableSleep, warmStart             bool
	time                               float64
	solverIters                        int
	solverSOR                          float64
	bodies                             []*body.Body
	geoms                              []*geom.Geom
	bodyGeom, geomFree, geomFreeStaged []int32
	joints                             []joint.Joint
	explosives                         []explosive  // World.Explosives in geom order
	blasts                             []blastState // World.Blasts, hit sets as sorted lists
	fractures                          []FractureGroup
	cloths                             []*cloth.Cloth
	clothProxy                         []int32
	warm                               []warmEntry
	bpTag                              uint8
	bpOrder                            []int32
}

type explosive struct {
	geom int32
	spec ExplosiveSpec
}

type blastState struct {
	geom               int32
	remaining, impulse float64
	hit, hitCloth      []int32
}

// Snapshot encodes the world's complete dynamic state.
func (w *World) Snapshot() []byte {
	st := w.gather()
	c := enc.Begin(snapMagic, SnapshotVersion, st.size())
	st.walk(c)
	if err := c.Err(); err != nil {
		// Shape and joint implementations from outside the engine cannot
		// appear in worlds built through the package API; fail loudly if
		// one does.
		panic(fmt.Sprintf("world: snapshot: %v", err))
	}
	return c.Seal()
}

// Restore replaces the world's dynamic state with a snapshot previously
// produced by Snapshot. Execution configuration (thread count, RecordDetail,
// observability attachments) is left untouched. On error the world is
// unchanged.
func (w *World) Restore(data []byte) error {
	c := enc.Open(data, snapMagic, SnapshotVersion, "world: snapshot")
	st := &worldState{}
	st.walk(c)
	if err := c.End(); err != nil {
		return err
	}
	if err := st.check(); err != nil {
		return fmt.Errorf("world: snapshot: %w", err)
	}
	w.commit(st)
	return nil
}

// gather collects the world's state for a storing walk. It copies only
// what the world keeps in another form: map contents become lists in
// sorted key order, so equal states encode to equal bytes.
func (w *World) gather() *worldState {
	st := &worldState{
		gravity: w.Gravity, dt: w.Dt, erp: w.ERP, cfm: w.CFM,
		enableSleep: w.EnableSleep, warmStart: w.WarmStart, time: w.Time,
		solverIters: w.Solver.Iterations, solverSOR: w.Solver.SOR,
		bodies: w.Bodies, geoms: w.Geoms,
		bodyGeom: w.bodyGeom, geomFree: w.geomFree, geomFreeStaged: w.geomFreeStaged,
		joints: w.Joints, fractures: w.Fractures,
		cloths: w.Cloths, clothProxy: w.clothProxy, warm: w.warm,
	}
	for gi, spec := range w.Explosives {
		st.explosives = append(st.explosives, explosive{gi, spec})
	}
	slices.SortFunc(st.explosives, func(a, b explosive) int { return cmp.Compare(a.geom, b.geom) })
	sortedKeys := func(set map[int32]bool) []int32 {
		keys := make([]int32, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		return keys
	}
	for i := range w.Blasts {
		bl := &w.Blasts[i]
		st.blasts = append(st.blasts, blastState{bl.Geom, bl.Remaining, bl.Impulse, sortedKeys(bl.hit), sortedKeys(bl.hitCloth)})
	}
	if sap, ok := w.Broad.(*broadphase.SweepAndPrune); ok {
		st.bpTag, st.bpOrder = bpSweep, sap.SaveOrder(nil)
	} else {
		// Restore leaves the target world's broad phase untouched.
		st.bpTag = bpOther
	}
	return st
}

// size estimates the encoding's length from the counts, so a storing
// walk appends into one buffer. Shapes that carry their own lists
// (height fields, meshes, hulls) are not counted; append makes up the
// difference.
func (st *worldState) size() int {
	n := 128 + 242*len(st.bodies) + 240*len(st.geoms) + 128*len(st.joints) + 28*len(st.explosives) + 36*len(st.warm) +
		4*(len(st.bodyGeom)+len(st.geomFree)+len(st.geomFreeStaged)+len(st.bpOrder))
	for _, bl := range st.blasts {
		n += 28 + 4*(len(bl.hit)+len(bl.hitCloth))
	}
	for _, fr := range st.fractures {
		n += 17 + 60*len(fr.Debris)
	}
	for _, cl := range st.cloths {
		n += 96 + 56*len(cl.Particles) + 16*len(cl.Constraints) + 12*len(cl.Tris) + 32*len(cl.Pins)
	}
	return n
}

// walk is the snapshot format after the frame's magic and version:
// every field named once, in file order, with the range it may hold.
// A field that indexes a list is coded with that list's length, and a
// count with the least number of bytes one of its elements occupies.
// What relates one field to another is left to check.
func (st *worldState) walk(c *enc.Codec) {
	// Parameters.
	c.Vec(&st.gravity)
	c.F64(&st.dt)
	c.F64(&st.erp)
	c.F64(&st.cfm)
	c.Bool(&st.enableSleep)
	c.Bool(&st.warmStart)
	c.F64(&st.time)
	c.Int(&st.solverIters, 0, maxSnapshotIterations, "solver iteration count")
	c.F64(&st.solverSOR)

	enc.Pointers(c, &st.bodies, 242, "body", func(i int, b *body.Body) {
		c.Vec(&b.Pos)
		c.Quat(&b.Rot)
		c.Vec(&b.LinVel)
		c.Vec(&b.AngVel)
		c.F64(&b.Mass)
		c.Mat(&b.Inertia)
		c.Vec(&b.Force)
		c.Vec(&b.Torque)
		c.Bool(&b.Enabled)
		c.Bool(&b.Asleep)
		idle := b.SleepClock()
		c.F64(&idle)
		if c.Loading() {
			b.ID = i
			b.SetMass(b.Mass, b.Inertia) // derives the inverses
			b.SetSleepClock(idle)
		}
	})
	nBodies := len(st.bodies)

	enc.Pointers(c, &st.geoms, 223, "geom", func(i int, g *geom.Geom) {
		if c.Loading() {
			g.ID = i
		}
		geom.CodeShape(c, &g.Shape)
		c.Vec(&g.Pos)
		c.Mat(&g.Rot)
		c.Int(&g.Body, -1, nBodies-1, "body")
		c.Vec(&g.OffsetPos)
		c.Quat(&g.OffsetRot)
		c.U16((*uint16)(&g.Flags))
		c.AABB(&g.Box)
		c.I32(&g.Group) // a label: only ever compared for equality
		c.I32(&g.Aux)   // means something under FlagCloth only; check ranges it there
	})
	nGeoms := len(st.geoms)
	// bodyGeom has no reader in the engine; version 1 carries it.
	c.Indices(&st.bodyGeom, nGeoms, true, "body geom")
	// detonate stores a blast volume at Geoms[slot] for a free slot, and
	// the staged slots become free ones when the next step ends.
	c.Indices(&st.geomFree, nGeoms, false, "free geom slot")
	c.Indices(&st.geomFreeStaged, nGeoms, false, "staged free geom slot")

	enc.Slice(c, &st.joints, 57, "joint", func(_ int, j *joint.Joint) { joint.CodeJoint(c, j, nBodies) })

	enc.Slice(c, &st.explosives, 28, "explosive spec", func(_ int, e *explosive) {
		c.Index(&e.geom, nGeoms, false, "geom")
		c.F64(&e.spec.Radius)
		c.F64(&e.spec.Duration)
		c.F64(&e.spec.Impulse)
	})

	enc.Slice(c, &st.blasts, 28, "blast", func(_ int, bl *blastState) {
		c.Index(&bl.geom, nGeoms, false, "geom")
		c.F64(&bl.remaining)
		c.F64(&bl.impulse)
		c.Indices(&bl.hit, nBodies, false, "hit body")
		// The cloth count comes later in the file; check ranges these.
		enc.Slice(c, &bl.hitCloth, 4, "", func(_ int, ci *int32) { c.I32(ci) })
	})

	enc.Slice(c, &st.fractures, 17, "fracture", func(_ int, fr *FractureGroup) {
		c.Index(&fr.Parent, nGeoms, false, "parent geom")
		c.Indices(&fr.Debris, nGeoms, false, "debris geom")
		c.Vecs(&fr.LocalPos)
		enc.Slice(c, &fr.LocalRot, 32, "", func(_ int, q *m3.Quat) { c.Quat(q) })
		c.Bool(&fr.Broken)
	})

	enc.Pointers(c, &st.cloths, 92, "cloth", func(_ int, cl *cloth.Cloth) {
		enc.Slice(c, &cl.Particles, 56, "particle", func(_ int, p *cloth.Particle) {
			c.Vec(&p.Pos)
			c.Vec(&p.Prev)
			c.F64(&p.InvMass)
		})
		np := len(cl.Particles)
		enc.Slice(c, &cl.Constraints, 16, "constraint", func(_ int, con *cloth.Constraint) {
			c.Index(&con.I, np, false, "particle")
			c.Index(&con.J, np, false, "particle")
			c.F64(&con.Rest)
		})
		geom.CodeTris(c, &cl.Tris, np)
		enc.Slice(c, &cl.Pins, 32, "pin", func(_ int, pin *cloth.Pin) {
			c.Index(&pin.P, np, false, "particle")
			c.Index(&pin.Body, nBodies, false, "body")
			c.Vec(&pin.Local)
		})
		// A step's cost is linear in the iteration counts and nothing
		// interrupts a step.
		c.Int(&cl.Iterations, 0, maxSnapshotIterations, "iteration count")
		c.F64(&cl.Damping)
		c.F64(&cl.Thickness)
		c.F64(&cl.Friction)
		c.AABB(&cl.Box)
	})
	c.Indices(&st.clothProxy, nGeoms, false, "cloth proxy geom")

	enc.Slice(c, &st.warm, 36, "warm-start entry", func(_ int, we *warmEntry) {
		c.U64(&we.pair)
		c.I32(&we.ord) // merge-joined against contact ordinals, never an index
		for i := range we.lambda {
			c.F64(&we.lambda[i])
		}
	})

	c.U8(&st.bpTag)
	switch st.bpTag {
	case bpSweep:
		c.Indices(&st.bpOrder, nGeoms, false, "broadphase order entry")
	case bpOther:
	default:
		c.Failf("unknown broadphase tag %d", st.bpTag)
	}
}

// check validates what relates one loaded field to another — walk has
// already ranged each field on its own — so a corrupt-but-checksummed
// snapshot fails here instead of panicking a later Step.
func (st *worldState) check() error {
	nGeoms, nCloths := len(st.geoms), len(st.cloths)
	if len(st.bodyGeom) != len(st.bodies) {
		return fmt.Errorf("bodyGeom length %d != body count %d", len(st.bodyGeom), len(st.bodies))
	}
	for i, bl := range st.blasts {
		// blastHit and blastHitCloth read the volume's radius off its shape.
		g := st.geoms[bl.geom]
		if _, ok := g.Shape.(geom.Sphere); !ok || !g.Flags.Has(geom.FlagBlast) {
			return fmt.Errorf("blast %d on geom %d, which is not a blast volume (%T, flags %#x)", i, bl.geom, g.Shape, uint16(g.Flags))
		}
		for _, ci := range bl.hitCloth {
			if ci < 0 || int(ci) >= nCloths {
				return fmt.Errorf("blast %d hit cloth %d out of range (of %d)", i, ci, nCloths)
			}
		}
	}
	for i, fr := range st.fractures {
		if len(fr.Debris) != len(fr.LocalPos) || len(fr.Debris) != len(fr.LocalRot) {
			return fmt.Errorf("fracture %d table lengths mismatch", i)
		}
	}

	// Each cloth has one proxy, a box carrying FlagCloth whose Aux names
	// the cloth, and nothing else carries the flag: the narrow phase
	// indexes clothContacts and Cloths with the Aux of any flagged geom.
	if len(st.clothProxy) != nCloths {
		return fmt.Errorf("%d cloth proxies for %d cloths", len(st.clothProxy), nCloths)
	}
	for ci, gi := range st.clothProxy {
		g := st.geoms[gi]
		if _, ok := g.Shape.(geom.Box); !ok || !g.Flags.Has(geom.FlagCloth) || g.Aux != int32(ci) {
			return fmt.Errorf("cloth %d proxy geom %d is not its proxy (%T, flags %#x, Aux %d)", ci, gi, g.Shape, uint16(g.Flags), g.Aux)
		}
	}
	flagged := 0
	for _, g := range st.geoms {
		if g.Flags.Has(geom.FlagCloth) {
			flagged++
		}
	}
	if flagged != nCloths {
		return fmt.Errorf("%d geoms flagged as cloth proxies for %d cloths", flagged, nCloths)
	}

	// processIslands merge-joins the warm-start list against the contact
	// list, so it must be strictly increasing in (pair, ordinal) like
	// Snapshot writes it.
	for i := 1; i < len(st.warm); i++ {
		if we := &st.warm[i]; !st.warm[i-1].before(we.pair, we.ord) {
			return fmt.Errorf("warm-start entry %d (pair %#x, ordinal %d) out of order or duplicated", i, we.pair, we.ord)
		}
	}

	// The sweep emits a pair per overlapping pair of entries, so a geom
	// listed twice pairs with itself and doubles its other pairs.
	seen := make([]bool, nGeoms)
	for _, gi := range st.bpOrder {
		if seen[gi] {
			return fmt.Errorf("broadphase order lists geom %d twice", gi)
		}
		seen[gi] = true
	}
	return nil
}

// commit swaps the loaded state into the world, rebuilding what the
// world keeps in another form than the file's. Execution
// configuration (thread count, RecordDetail, obs attachments, worker pool,
// scratch arena) is preserved.
func (w *World) commit(st *worldState) {
	w.Gravity = st.gravity
	w.Dt = st.dt
	w.ERP = st.erp
	w.CFM = st.cfm
	w.EnableSleep = st.enableSleep
	w.WarmStart = st.warmStart
	w.Time = st.time
	if w.Solver == nil {
		w.Solver = solver.New()
	}
	w.Solver.Iterations = st.solverIters
	w.Solver.SOR = st.solverSOR

	w.Bodies = st.bodies
	w.Geoms = st.geoms
	w.bodyGeom = st.bodyGeom
	w.geomFree = st.geomFree
	w.geomFreeStaged = st.geomFreeStaged
	w.Joints = st.joints
	w.Explosives = make(map[int32]ExplosiveSpec, len(st.explosives))
	for _, e := range st.explosives {
		w.Explosives[e.geom] = e.spec
	}
	w.Blasts = make([]Blast, len(st.blasts))
	w.blastOfGeom = make(map[int32]int32, len(st.blasts))
	for i, bs := range st.blasts {
		bl := &w.Blasts[i]
		*bl = Blast{Geom: bs.geom, Remaining: bs.remaining, Impulse: bs.impulse, hit: map[int32]bool{}, hitCloth: map[int32]bool{}}
		for _, bi := range bs.hit {
			bl.hit[bi] = true
		}
		for _, ci := range bs.hitCloth {
			bl.hitCloth[ci] = true
		}
		w.blastOfGeom[bs.geom] = int32(i)
	}
	w.Fractures = st.fractures
	w.fractureOfGeom = make(map[int32]int32, len(st.fractures))
	for i := range st.fractures {
		w.fractureOfGeom[st.fractures[i].Parent] = int32(i)
	}
	w.Cloths = st.cloths
	w.clothProxy = st.clothProxy
	// Re-establish the proxy aliasing: a proxy geom's Shape is the same
	// *Box the world resizes each step.
	w.clothProxyShape = make([]*geom.Box, len(st.cloths))
	for ci, gi := range st.clothProxy {
		sh := &geom.Box{Half: st.geoms[gi].Shape.(geom.Box).Half}
		st.geoms[gi].Shape = sh
		w.clothProxyShape[ci] = sh
	}
	w.clothContacts = make([][]int32, len(st.cloths))
	w.warm = st.warm

	// Under bpOther the source world's broad phase carried no state;
	// keep whatever the target world has.
	if st.bpTag == bpSweep {
		sap, ok := w.Broad.(*broadphase.SweepAndPrune)
		if !ok {
			sap = broadphase.NewSweepAndPrune()
			w.Broad = sap
		}
		sap.RestoreOrder(st.bpOrder)
	}

	// Seed the pair/edge pre-size hints from the scene size so the first
	// post-restore step doesn't regrow its scratch buffers incrementally.
	w.prevPairs = 4 * len(st.geoms)
	w.prevEdges = w.prevPairs + len(st.joints)

	// The last step's profile described the pre-restore state.
	w.Profile = StepProfile{}
}

// Clone returns an independent copy of the world via a snapshot round
// trip, sharing no mutable state with the original. Execution
// configuration (the thread count, RecordDetail) is copied;
// observability attachments are not.
func (w *World) Clone() (*World, error) {
	nw := New()
	nw.SetThreads(w.threads)
	nw.RecordDetail = w.RecordDetail
	if err := nw.Restore(w.Snapshot()); err != nil {
		return nil, err
	}
	return nw, nil
}
