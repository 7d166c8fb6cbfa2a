package world

import (
	"fmt"
	"hash/crc32"
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
// bit-identical to stepping w uninterrupted, at any thread count.
//
// Captured: solver/world parameters and simulated time; bodies (pose,
// velocities, mass properties, force/torque accumulators, sleep state);
// geoms (shape, placement, flags, cached AABB) and the free-slot list;
// joints including Breakable fatigue and broken flags; explosive specs,
// active blasts with their already-hit sets, and fracture tables;
// cloths (particle positions and Verlet previous positions, pins,
// constraints); the warm-start impulse list; and the broad phase's
// cross-step state — the sweep-and-prune order, or the incremental
// SAP's endpoint order plus persistent overlap-pair set (their
// temporal coherence is observable in the step profile's SortOps and
// Rebuilds counters).
//
// Intentionally excluded (execution configuration and derived scratch,
// not simulation state): Threads, RecordDetail, the observability
// attachments, the last step's Profile, the worker pool, and the
// per-step scratch arena. See DESIGN.md "State model & snapshot
// format".

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

// Broad-phase implementation tags in the snapshot encoding.
const (
	bpSweep uint8 = iota
	bpHash
	bpBrute
	bpIncSweep
	bpOther = uint8(255)
)

// Snapshot encodes the world's complete dynamic state.
func (w *World) Snapshot() []byte {
	e := &enc.Writer{}
	e.U32(snapMagic)
	e.U32(SnapshotVersion)

	// Parameters.
	e.Vec(w.Gravity)
	e.F64(w.Dt)
	e.F64(w.ERP)
	e.F64(w.CFM)
	e.Bool(w.EnableSleep)
	e.Bool(w.WarmStart)
	e.F64(w.Time)
	e.I32(int32(w.Solver.Iterations))
	e.F64(w.Solver.SOR)

	// Bodies.
	e.U32(uint32(len(w.Bodies)))
	for _, b := range w.Bodies {
		e.Vec(b.Pos)
		e.Quat(b.Rot)
		e.Vec(b.LinVel)
		e.Vec(b.AngVel)
		e.F64(b.Mass)
		e.Mat(b.Inertia)
		e.Vec(b.Force)
		e.Vec(b.Torque)
		e.Bool(b.Enabled)
		e.Bool(b.Asleep)
		e.F64(b.SleepClock())
	}

	// Geoms.
	e.U32(uint32(len(w.Geoms)))
	for _, g := range w.Geoms {
		if err := geom.EncodeShape(e, g.Shape); err != nil {
			// Unknown shape implementations cannot appear in worlds built
			// through the package API; fail loudly if one does.
			panic(fmt.Sprintf("world: snapshot: %v", err))
		}
		e.Vec(g.Pos)
		e.Mat(g.Rot)
		e.I32(int32(g.Body))
		e.Vec(g.OffsetPos)
		e.Quat(g.OffsetRot)
		e.U16(uint16(g.Flags))
		e.AABB(g.Box)
		e.I32(g.Group)
		e.I32(g.Aux)
	}
	e.I32s(w.bodyGeom)
	e.I32s(w.geomFree)
	e.I32s(w.geomFreeStaged)

	// Joints.
	e.U32(uint32(len(w.Joints)))
	for _, j := range w.Joints {
		if err := joint.EncodeJoint(e, j); err != nil {
			panic(fmt.Sprintf("world: snapshot: %v", err))
		}
	}

	// Explosive specs, in geom-index order.
	expl := make([]int32, 0, len(w.Explosives))
	for gi := range w.Explosives {
		expl = append(expl, gi)
	}
	slices.Sort(expl)
	e.U32(uint32(len(expl)))
	for _, gi := range expl {
		spec := w.Explosives[gi]
		e.I32(gi)
		e.F64(spec.Radius)
		e.F64(spec.Duration)
		e.F64(spec.Impulse)
	}

	// Active blasts, with their already-hit sets in sorted order.
	e.U32(uint32(len(w.Blasts)))
	for i := range w.Blasts {
		bl := &w.Blasts[i]
		e.I32(bl.Geom)
		e.F64(bl.Remaining)
		e.F64(bl.Impulse)
		hit := make([]int32, 0, len(bl.hit))
		for bi := range bl.hit {
			hit = append(hit, bi)
		}
		slices.Sort(hit)
		e.I32s(hit)
		hitCloth := make([]int32, 0, len(bl.hitCloth))
		for ci := range bl.hitCloth {
			hitCloth = append(hitCloth, ci)
		}
		slices.Sort(hitCloth)
		e.I32s(hitCloth)
	}

	// Fracture tables.
	e.U32(uint32(len(w.Fractures)))
	for i := range w.Fractures {
		fr := &w.Fractures[i]
		e.I32(fr.Parent)
		e.I32s(fr.Debris)
		e.Vecs(fr.LocalPos)
		e.U32(uint32(len(fr.LocalRot)))
		for _, q := range fr.LocalRot {
			e.Quat(q)
		}
		e.Bool(fr.Broken)
	}

	// Cloths.
	e.U32(uint32(len(w.Cloths)))
	for _, c := range w.Cloths {
		e.U32(uint32(len(c.Particles)))
		for i := range c.Particles {
			p := &c.Particles[i]
			e.Vec(p.Pos)
			e.Vec(p.Prev)
			e.F64(p.InvMass)
		}
		e.U32(uint32(len(c.Constraints)))
		for i := range c.Constraints {
			con := &c.Constraints[i]
			e.I32(con.I)
			e.I32(con.J)
			e.F64(con.Rest)
		}
		e.U32(uint32(len(c.Tris)))
		for _, t := range c.Tris {
			e.I32(t[0])
			e.I32(t[1])
			e.I32(t[2])
		}
		e.U32(uint32(len(c.Pins)))
		for i := range c.Pins {
			pin := &c.Pins[i]
			e.I32(pin.P)
			e.I32(pin.Body)
			e.Vec(pin.Local)
		}
		e.I32(int32(c.Iterations))
		e.F64(c.Damping)
		e.F64(c.Thickness)
		e.F64(c.Friction)
		e.AABB(c.Box)
	}
	e.I32s(w.clothProxy)

	// Warm-start impulses; the list is kept in (pair, ordinal) order.
	e.U32(uint32(len(w.warm)))
	for i := range w.warm {
		we := &w.warm[i]
		e.U64(we.pair)
		e.I32(we.ord)
		for _, f := range we.lambda {
			e.F64(f)
		}
	}

	// Broad phase.
	switch bp := w.Broad.(type) {
	case *broadphase.SweepAndPrune:
		e.U8(bpSweep)
		e.I32s(bp.SaveOrder(nil))
	case *broadphase.IncrementalSAP:
		e.U8(bpIncSweep)
		st := bp.SaveState()
		e.I32(st.Axis)
		e.I32s(st.Endpoints)
		e.U32(uint32(len(st.Pairs)))
		for _, k := range st.Pairs {
			e.U64(k)
		}
		e.Bool(st.Rebuild)
	case *broadphase.SpatialHash:
		e.U8(bpHash)
		e.F64(bp.CellSize)
	case *broadphase.BruteForce:
		e.U8(bpBrute)
	default:
		// Custom implementation: its state cannot be captured here.
		// Restore leaves the target world's broad phase untouched.
		e.U8(bpOther)
	}

	buf := e.Bytes()
	e.U32(crc32.ChecksumIEEE(buf))
	return e.Bytes()
}

// worldState is the fully decoded snapshot, parsed before any of it is
// committed so a corrupt snapshot never leaves the world half-restored.
type worldState struct {
	gravity                  m3.Vec
	dt, erp, cfm             float64
	enableSleep, warmStart   bool
	time                     float64
	solverIters              int
	solverSOR                float64
	bodies                   []*body.Body
	geoms                    []*geom.Geom
	bodyGeom                 []int32
	geomFree, geomFreeStaged []int32
	joints                   []joint.Joint
	explosives               map[int32]ExplosiveSpec
	blasts                   []Blast
	fractures                []FractureGroup
	cloths                   []*cloth.Cloth
	clothProxy               []int32
	clothProxyShape          []*geom.Box
	warm                     []warmEntry
	bpTag                    uint8
	bpOrder                  []int32
	bpInc                    broadphase.IncSAPState
	bpCellSize               float64
}

// Restore replaces the world's dynamic state with a snapshot previously
// produced by Snapshot. Execution configuration (Threads, RecordDetail,
// observability attachments) is left untouched. On error the world is
// unchanged.
func (w *World) Restore(data []byte) error {
	if len(data) < 12 {
		return fmt.Errorf("world: snapshot truncated (%d bytes)", len(data))
	}
	payload := data[:len(data)-4]
	sum := crc32.ChecksumIEEE(payload)
	trailer := enc.NewReader(data[len(data)-4:])
	if got := trailer.U32(); got != sum {
		return fmt.Errorf("world: snapshot checksum mismatch (got %08x, want %08x)", got, sum)
	}
	r := enc.NewReader(payload)
	if magic := r.U32(); magic != snapMagic {
		return fmt.Errorf("world: bad snapshot magic %08x", magic)
	}
	if v := r.U32(); v != SnapshotVersion {
		return fmt.Errorf("world: unsupported snapshot version %d (want %d)", v, SnapshotVersion)
	}
	st, err := decodeState(r)
	if err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("world: %d trailing bytes in snapshot", r.Remaining())
	}
	w.commit(st)
	return nil
}

// decodeState parses everything after the header. It validates index
// ranges that later code dereferences, so a corrupt-but-checksummed
// snapshot fails with an error instead of a panic.
func decodeState(r *enc.Reader) (*worldState, error) {
	st := &worldState{}
	st.gravity = r.Vec()
	st.dt = r.F64()
	st.erp = r.F64()
	st.cfm = r.F64()
	st.enableSleep = r.Bool()
	st.warmStart = r.Bool()
	st.time = r.F64()
	st.solverIters = int(r.I32())
	st.solverSOR = r.F64()
	if st.solverIters < 0 || st.solverIters > maxSnapshotIterations {
		return nil, fmt.Errorf("world: solver iteration count %d outside [0, %d]", st.solverIters, maxSnapshotIterations)
	}

	nBodies := r.Count()
	if err := r.Err(); err != nil {
		return nil, err
	}
	st.bodies = make([]*body.Body, nBodies)
	for i := range st.bodies {
		pos := r.Vec()
		rot := r.Quat()
		lin := r.Vec()
		ang := r.Vec()
		mass := r.F64()
		inertia := r.Mat()
		force := r.Vec()
		torque := r.Vec()
		enabled := r.Bool()
		asleep := r.Bool()
		idle := r.F64()
		b := body.New(mass, inertia)
		b.ID = i
		b.Pos = pos
		b.Rot = rot
		b.LinVel = lin
		b.AngVel = ang
		b.Force = force
		b.Torque = torque
		b.Enabled = enabled
		b.Asleep = asleep
		b.SetSleepClock(idle)
		st.bodies[i] = b
	}

	nGeoms := r.Count()
	if err := r.Err(); err != nil {
		return nil, err
	}
	st.geoms = make([]*geom.Geom, nGeoms)
	for i := range st.geoms {
		sh, err := geom.DecodeShape(r)
		if err != nil {
			return nil, err
		}
		gm := &geom.Geom{ID: i, Shape: sh}
		gm.Pos = r.Vec()
		gm.Rot = r.Mat()
		gm.Body = int(r.I32())
		gm.OffsetPos = r.Vec()
		gm.OffsetRot = r.Quat()
		gm.Flags = geom.Flag(r.U16())
		gm.Box = r.AABB()
		gm.Group = r.I32()
		gm.Aux = r.I32()
		if gm.Body < -1 || gm.Body >= nBodies {
			return nil, fmt.Errorf("world: geom %d references body %d (of %d)", i, gm.Body, nBodies)
		}
		st.geoms[i] = gm
	}
	st.bodyGeom = r.I32s()
	st.geomFree = r.I32s()
	st.geomFreeStaged = r.I32s()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(st.bodyGeom) != nBodies {
		return nil, fmt.Errorf("world: bodyGeom length %d != body count %d", len(st.bodyGeom), nBodies)
	}
	// detonate stores a blast volume at w.Geoms[slot] for a free slot, and
	// the staged slots become free ones when the next step ends.
	for _, gi := range st.geomFree {
		if gi < 0 || int(gi) >= nGeoms {
			return nil, fmt.Errorf("world: free geom slot %d out of range", gi)
		}
	}
	for _, gi := range st.geomFreeStaged {
		if gi < 0 || int(gi) >= nGeoms {
			return nil, fmt.Errorf("world: staged free geom slot %d out of range", gi)
		}
	}

	nJoints := r.Count()
	if err := r.Err(); err != nil {
		return nil, err
	}
	st.joints = make([]joint.Joint, nJoints)
	for i := range st.joints {
		j, err := joint.DecodeJoint(r)
		if err != nil {
			return nil, err
		}
		a, b := j.Bodies()
		if a < -1 || int(a) >= nBodies || b < -1 || int(b) >= nBodies {
			return nil, fmt.Errorf("world: joint %d references bodies (%d, %d) of %d", i, a, b, nBodies)
		}
		st.joints[i] = j
	}

	nExpl := r.Count()
	if err := r.Err(); err != nil {
		return nil, err
	}
	st.explosives = make(map[int32]ExplosiveSpec, nExpl)
	for i := 0; i < nExpl; i++ {
		gi := r.I32()
		spec := ExplosiveSpec{Radius: r.F64(), Duration: r.F64(), Impulse: r.F64()}
		if gi < 0 || int(gi) >= nGeoms {
			return nil, fmt.Errorf("world: explosive spec on geom %d (of %d)", gi, nGeoms)
		}
		st.explosives[gi] = spec
	}

	nBlasts := r.Count()
	if err := r.Err(); err != nil {
		return nil, err
	}
	st.blasts = make([]Blast, nBlasts)
	for i := range st.blasts {
		bl := &st.blasts[i]
		bl.Geom = r.I32()
		bl.Remaining = r.F64()
		bl.Impulse = r.F64()
		bl.hit = make(map[int32]bool)
		for _, bi := range r.I32s() {
			bl.hit[bi] = true
		}
		bl.hitCloth = make(map[int32]bool)
		for _, ci := range r.I32s() {
			bl.hitCloth[ci] = true
		}
		if bl.Geom < 0 || int(bl.Geom) >= nGeoms {
			return nil, fmt.Errorf("world: blast %d on geom %d (of %d)", i, bl.Geom, nGeoms)
		}
		// blastHit and blastHitCloth read the volume's radius off its shape.
		bg := st.geoms[bl.Geom]
		if _, ok := bg.Shape.(geom.Sphere); !ok || !bg.Flags.Has(geom.FlagBlast) {
			return nil, fmt.Errorf("world: blast %d on geom %d, which is not a blast volume (%T, flags %#x)", i, bl.Geom, bg.Shape, uint16(bg.Flags))
		}
	}

	nFr := r.Count()
	if err := r.Err(); err != nil {
		return nil, err
	}
	st.fractures = make([]FractureGroup, nFr)
	for i := range st.fractures {
		fr := &st.fractures[i]
		fr.Parent = r.I32()
		fr.Debris = r.I32s()
		fr.LocalPos = r.Vecs()
		nq := r.Count()
		if err := r.Err(); err != nil {
			return nil, err
		}
		fr.LocalRot = make([]m3.Quat, 0, nq)
		for q := 0; q < nq; q++ {
			fr.LocalRot = append(fr.LocalRot, r.Quat())
		}
		fr.Broken = r.Bool()
		if fr.Parent < 0 || int(fr.Parent) >= nGeoms {
			return nil, fmt.Errorf("world: fracture %d parent %d (of %d)", i, fr.Parent, nGeoms)
		}
		for _, di := range fr.Debris {
			if di < 0 || int(di) >= nGeoms {
				return nil, fmt.Errorf("world: fracture %d debris %d (of %d)", i, di, nGeoms)
			}
		}
		if len(fr.Debris) != len(fr.LocalPos) || len(fr.Debris) != len(fr.LocalRot) {
			return nil, fmt.Errorf("world: fracture %d table lengths mismatch", i)
		}
	}

	nCloths := r.Count()
	if err := r.Err(); err != nil {
		return nil, err
	}
	st.cloths = make([]*cloth.Cloth, nCloths)
	for i := range st.cloths {
		c := &cloth.Cloth{}
		np := r.Count()
		if err := r.Err(); err != nil {
			return nil, err
		}
		c.Particles = make([]cloth.Particle, np)
		for p := range c.Particles {
			c.Particles[p].Pos = r.Vec()
			c.Particles[p].Prev = r.Vec()
			c.Particles[p].InvMass = r.F64()
		}
		nc := r.Count()
		if err := r.Err(); err != nil {
			return nil, err
		}
		c.Constraints = make([]cloth.Constraint, nc)
		for ci := range c.Constraints {
			c.Constraints[ci].I = r.I32()
			c.Constraints[ci].J = r.I32()
			c.Constraints[ci].Rest = r.F64()
		}
		nt := r.Count()
		if err := r.Err(); err != nil {
			return nil, err
		}
		c.Tris = make([]geom.Tri, nt)
		for t := range c.Tris {
			c.Tris[t][0] = r.I32()
			c.Tris[t][1] = r.I32()
			c.Tris[t][2] = r.I32()
		}
		npin := r.Count()
		if err := r.Err(); err != nil {
			return nil, err
		}
		c.Pins = make([]cloth.Pin, npin)
		for p := range c.Pins {
			c.Pins[p].P = r.I32()
			c.Pins[p].Body = r.I32()
			c.Pins[p].Local = r.Vec()
		}
		c.Iterations = int(r.I32())
		c.Damping = r.F64()
		c.Thickness = r.F64()
		c.Friction = r.F64()
		c.Box = r.AABB()
		if c.Iterations < 0 || c.Iterations > maxSnapshotIterations {
			return nil, fmt.Errorf("world: cloth %d iteration count %d outside [0, %d]", i, c.Iterations, maxSnapshotIterations)
		}
		for _, con := range c.Constraints {
			if con.I < 0 || int(con.I) >= np || con.J < 0 || int(con.J) >= np {
				return nil, fmt.Errorf("world: cloth %d constraint out of range", i)
			}
		}
		for _, pin := range c.Pins {
			if pin.P < 0 || int(pin.P) >= np || pin.Body < 0 || int(pin.Body) >= nBodies {
				return nil, fmt.Errorf("world: cloth %d pin out of range", i)
			}
		}
		st.cloths[i] = c
	}
	st.clothProxy = r.I32s()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(st.clothProxy) != nCloths {
		return nil, fmt.Errorf("world: %d cloth proxies for %d cloths", len(st.clothProxy), nCloths)
	}
	st.clothProxyShape = make([]*geom.Box, nCloths)
	for ci, gi := range st.clothProxy {
		if gi < 0 || int(gi) >= nGeoms {
			return nil, fmt.Errorf("world: cloth %d proxy geom %d (of %d)", ci, gi, nGeoms)
		}
		// Re-establish the proxy aliasing: the proxy geom's Shape must be
		// the same *Box the world resizes each step.
		bx, ok := st.geoms[gi].Shape.(geom.Box)
		if !ok {
			return nil, fmt.Errorf("world: cloth %d proxy geom %d is %T, want box", ci, gi, st.geoms[gi].Shape)
		}
		sh := &geom.Box{Half: bx.Half}
		st.geoms[gi].Shape = sh
		st.clothProxyShape[ci] = sh
	}

	nWarm := r.Count()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// processIslands merge-joins this list against the contact list, so
	// it must be strictly increasing in (pair, ordinal) like Snapshot
	// writes it.
	st.warm = make([]warmEntry, nWarm)
	for i := range st.warm {
		we := &st.warm[i]
		we.pair, we.ord = r.U64(), r.I32()
		for li := range we.lambda {
			we.lambda[li] = r.F64()
		}
		if i > 0 && !st.warm[i-1].before(we.pair, we.ord) {
			return nil, fmt.Errorf("world: warm-start entry %d (pair %#x, ordinal %d) out of order or duplicated", i, we.pair, we.ord)
		}
	}

	st.bpTag = r.U8()
	switch st.bpTag {
	case bpSweep:
		st.bpOrder = r.I32s()
		for _, gi := range st.bpOrder {
			if gi < 0 || int(gi) >= nGeoms {
				return nil, fmt.Errorf("world: broadphase order entry %d out of range", gi)
			}
		}
	case bpIncSweep:
		st.bpInc.Axis = r.I32()
		st.bpInc.Endpoints = r.I32s()
		nPairs := r.Count()
		if err := r.Err(); err != nil {
			return nil, err
		}
		st.bpInc.Pairs = make([]uint64, 0, nPairs)
		for i := 0; i < nPairs; i++ {
			st.bpInc.Pairs = append(st.bpInc.Pairs, r.U64())
		}
		st.bpInc.Rebuild = r.Bool()
		if st.bpInc.Axis < 0 || st.bpInc.Axis > 2 {
			return nil, fmt.Errorf("world: broadphase sweep axis %d out of range", st.bpInc.Axis)
		}
		// Each geom in the endpoint array must contribute exactly one min
		// and one max, min first — RestoreState and the next pass's sort
		// assume a well-formed permutation.
		seen := make(map[int32]int32, len(st.bpInc.Endpoints)/2)
		done := 0
		for _, packed := range st.bpInc.Endpoints {
			id, side := packed>>1, packed&1
			if id < 0 || int(id) >= nGeoms {
				return nil, fmt.Errorf("world: broadphase endpoint geom %d (of %d)", id, nGeoms)
			}
			if seen[id] != side {
				return nil, fmt.Errorf("world: broadphase endpoints of geom %d malformed", id)
			}
			seen[id] = side + 1
			if side == 1 {
				done++
			}
		}
		if 2*done != len(st.bpInc.Endpoints) {
			return nil, fmt.Errorf("world: broadphase endpoint array incomplete (%d endpoints, %d closed)", len(st.bpInc.Endpoints), done)
		}
		for _, k := range st.bpInc.Pairs {
			a, b := int32(k>>32), int32(k&0xffffffff)
			if a >= b || seen[a] != 2 || seen[b] != 2 {
				return nil, fmt.Errorf("world: broadphase pair key (%d,%d) malformed", a, b)
			}
		}
	case bpHash:
		st.bpCellSize = r.F64()
	case bpBrute, bpOther:
	default:
		return nil, fmt.Errorf("world: unknown broadphase tag %d", st.bpTag)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return st, nil
}

// commit swaps the decoded state into the world. Execution
// configuration (Threads, RecordDetail, obs attachments, worker pool,
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
	w.Explosives = st.explosives
	w.Blasts = st.blasts
	w.blastOfGeom = make(map[int32]int32, len(st.blasts))
	for i := range st.blasts {
		w.blastOfGeom[st.blasts[i].Geom] = int32(i)
	}
	w.Fractures = st.fractures
	w.fractureOfGeom = make(map[int32]int32, len(st.fractures))
	for i := range st.fractures {
		w.fractureOfGeom[st.fractures[i].Parent] = int32(i)
	}
	w.Cloths = st.cloths
	w.clothProxy = st.clothProxy
	w.clothProxyShape = st.clothProxyShape
	w.clothContacts = make([][]int32, len(st.cloths))
	w.warm = st.warm

	switch st.bpTag {
	case bpSweep:
		sap, ok := w.Broad.(*broadphase.SweepAndPrune)
		if !ok {
			sap = broadphase.NewSweepAndPrune()
			w.Broad = sap
		}
		sap.RestoreOrder(st.bpOrder)
	case bpIncSweep:
		inc, ok := w.Broad.(*broadphase.IncrementalSAP)
		if !ok {
			inc = broadphase.NewIncrementalSAP()
			w.Broad = inc
		}
		inc.RestoreState(st.bpInc)
	case bpHash:
		h, ok := w.Broad.(*broadphase.SpatialHash)
		if !ok {
			h = broadphase.NewSpatialHash()
			w.Broad = h
		}
		h.CellSize = st.bpCellSize
	case bpBrute:
		if _, ok := w.Broad.(*broadphase.BruteForce); !ok {
			w.Broad = broadphase.NewBruteForce()
		}
	case bpOther:
		// The source world ran a custom broad phase whose state the
		// snapshot cannot carry; keep whatever the target world has.
	}

	// Seed the pair/edge pre-size hints so the first post-restore step
	// doesn't regrow its scratch buffers incrementally. The incremental
	// SAP's saved pair set gives a real count; otherwise estimate from
	// the scene size.
	w.prevPairs = len(st.bpInc.Pairs)
	if w.prevPairs == 0 {
		w.prevPairs = 4 * len(st.geoms)
	}
	w.prevEdges = w.prevPairs + len(st.joints)

	// The last step's profile described the pre-restore state.
	w.Profile = StepProfile{}
}

// Clone returns an independent copy of the world via a snapshot round
// trip, sharing no mutable state with the original. Execution
// configuration (Threads, RecordDetail) is copied; observability
// attachments are not.
func (w *World) Clone() (*World, error) {
	nw := New()
	nw.Threads = w.Threads
	nw.RecordDetail = w.RecordDetail
	if err := nw.Restore(w.Snapshot()); err != nil {
		return nil, err
	}
	return nw, nil
}
