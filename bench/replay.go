package main

import (
	"fmt"

	"github.com/parallax-arch/parallax/internal/phys/body"
	"github.com/parallax-arch/parallax/internal/phys/broadphase"
	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/island"
	"github.com/parallax-arch/parallax/internal/phys/joint"
	"github.com/parallax-arch/parallax/internal/phys/m3"
	"github.com/parallax-arch/parallax/internal/phys/narrowphase"
	"github.com/parallax-arch/parallax/internal/phys/solver"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// Span names of the replayed layers. replayStep opens one rootSpan per
// step and one child per call into a layer, so the root's self time is the
// replay's own glue and each child's is that layer's time.
const (
	rootSpan    = "replay-step"
	spanSAP     = "broadphase.sap"
	spanHash    = "broadphase.hash"
	spanIncSAP  = "broadphase.incsap"
	spanCollide = "narrowphase.collide"
	spanIsland  = "island.build"
	spanRows    = "joint.rows"
	spanSolve   = "solver.solve"
	spanCloth   = "cloth.step"
)

// stepCounts are the work counts one step produced, as World.Profile
// reports them and as the replay must reproduce them.
type stepCounts struct {
	Pairs, Contacts, Islands, Rows, MaxRows int
	BodiesIntegrated, ClothVerts            int
}

func countsOf(p *world.StepProfile) stepCounts {
	c := stepCounts{
		Pairs: p.Pairs, Contacts: p.Contacts, Islands: len(p.Islands),
		Rows: p.Solver.Rows, BodiesIntegrated: p.BodiesIntegrated,
		ClothVerts: p.Cloth.VertexUpdates,
	}
	for _, is := range p.Islands {
		if is.DOF > c.MaxRows {
			c.MaxRows = is.DOF
		}
	}
	return c
}

// replayed is what one replayed step yields beyond its spans.
type replayed struct {
	counts       stepCounts
	pairsTested  int
	pairsHit     int // pairs that produced at least one contact
	rowUpdates   int
	residual     float64
	incsapSort   int
	nextPairs    int // pair count at the poses the step ended in
	nextPairsInc int // the incremental SAP's count at those poses
}

// replayer re-drives one step of a world through the layers' public entry
// points: the same calls in the same order World.Step makes, single
// threaded, with a span around each. Buffers persist across steps the way
// the engine's scratch arena does, so the layers are timed warm.
type replayer struct {
	log *spanLog

	hash      *broadphase.SpatialHash
	pairs     []broadphase.Pair // the replayed step's pair list
	alt       []broadphase.Pair // the other broad phases' output, for its length
	scr       narrowphase.Scratch
	contacts  []narrowphase.Contact
	edges     []island.Edge
	builder   island.Builder
	rows      []joint.Row
	ws        solver.Workspace
	jointLoad []float64
	clothHits [][]int32
}

func newReplayer(log *spanLog) *replayer {
	return &replayer{log: log, hash: broadphase.NewSpatialHash()}
}

func active(b *body.Body) bool { return b.Enabled && b.InvMass > 0 && !b.Asleep }

func moving(b *body.Body) bool {
	return !b.Asleep &&
		(b.LinVel.Len2() > body.SleepLinVel*body.SleepLinVel ||
			b.AngVel.Len2() > body.SleepAngVel*body.SleepAngVel)
}

// refreshAABBs is the broad phase's pre-pass: every enabled geom's box at
// its current pose.
func refreshAABBs(w *world.World) {
	for _, g := range w.Geoms {
		if g.Enabled() {
			g.UpdateAABB()
		}
	}
}

// replayStep advances w (a clone nobody else steps) by one step and
// returns the work it did and the index of the step's root span. The step
// must be free of explosions and shattering: those go through World's
// private event tables, which the layers' public functions do not reach.
func (r *replayer) replayStep(w *world.World) (replayed, int32, error) {
	var out replayed
	log := r.log
	root := log.begin(rootSpan)
	defer func() {
		if n := len(log.open); n > 0 && log.open[n-1] == root {
			log.end(root)
		}
	}()

	sap, ok := w.Broad.(*broadphase.SweepAndPrune)
	if !ok {
		return out, root, fmt.Errorf("replay expects the default sweep-and-prune broad phase, world has %T", w.Broad)
	}

	// (a) external forces, cloth proxies.
	for _, b := range w.Bodies {
		if active(b) {
			b.AddForce(w.Gravity.Scale(b.Mass))
		}
	}
	for len(r.clothHits) < len(w.Cloths) {
		r.clothHits = append(r.clothHits, nil)
	}
	for _, g := range w.Geoms {
		if g.Flags.Has(geom.FlagCloth) {
			c := w.Cloths[g.Aux]
			g.Shape.(*geom.Box).Half = c.Box.Extent().Scale(0.5)
			g.Pos = c.Box.Center()
			r.clothHits[g.Aux] = r.clothHits[g.Aux][:0]
		}
	}

	// (b) broad phase. The clone carries the world's own sweep order, so
	// this is the call the engine is about to make. The spatial hash runs
	// on the same boxes; the incremental sweep needs one step of motion
	// and is timed at the end.
	refreshAABBs(w)
	log.span(spanSAP, func() { r.pairs = sap.PairsPrerefreshed(w.Geoms, r.pairs[:0]) })
	log.span(spanHash, func() { r.alt = r.hash.PairsPrerefreshed(w.Geoms, r.alt[:0]) })
	if len(r.alt) != len(r.pairs) {
		return out, root, fmt.Errorf("spatial hash found %d pairs, sweep-and-prune %d on the same geoms", len(r.alt), len(r.pairs))
	}
	inc := broadphase.NewIncrementalSAP()
	r.alt = inc.PairsPrerefreshed(w.Geoms, r.alt[:0]) // untimed: the first call is a full rebuild
	if len(r.alt) != len(r.pairs) {
		return out, root, fmt.Errorf("incremental SAP found %d pairs, sweep-and-prune %d on the same geoms", len(r.alt), len(r.pairs))
	}
	out.counts.Pairs = len(r.pairs)

	// (c) narrow phase, with the engine's routing of cloth and blast
	// pairs and its drop of an exploding object's contacts.
	var nst narrowphase.Stats
	c := log.begin(spanCollide)
	contacts := r.contacts[:0]
	for _, pr := range r.pairs {
		a, b := w.Geoms[pr.A], w.Geoms[pr.B]
		aC, bC := a.Flags.Has(geom.FlagCloth), b.Flags.Has(geom.FlagCloth)
		aB, bB := a.Flags.Has(geom.FlagBlast), b.Flags.Has(geom.FlagBlast)
		switch {
		case aC || bC:
			if aC && !bB && !bC {
				r.clothHits[a.Aux] = append(r.clothHits[a.Aux], int32(b.ID))
			}
			if bC && !aB && !aC {
				r.clothHits[b.Aux] = append(r.clothHits[b.Aux], int32(a.ID))
			}
		case aB || bB:
			// blast volumes make no contacts
		default:
			start := len(contacts)
			contacts = r.scr.Collide(a, b, contacts, &nst)
			if len(contacts) > start {
				out.pairsHit++
				if a.Flags.Has(geom.FlagExplosive) || b.Flags.Has(geom.FlagExplosive) {
					contacts = contacts[:start]
				}
			}
		}
	}
	log.end(c)
	r.contacts = contacts
	out.counts.Contacts = len(contacts)
	out.pairsTested = nst.PairsTested

	if w.EnableSleep {
		for _, j := range w.Joints {
			if j.NumRows() == 0 {
				continue
			}
			ja, jb := j.Bodies()
			if ja >= 0 && jb >= 0 {
				wake(w.Bodies[ja], w.Bodies[jb])
			}
		}
		for i := range contacts {
			ba, bb := w.Geoms[contacts[i].A].Body, w.Geoms[contacts[i].B].Body
			if ba >= 0 && bb >= 0 {
				wake(w.Bodies[ba], w.Bodies[bb])
			}
		}
	}

	// (d) island creation.
	edges := r.edges[:0]
	for i, j := range w.Joints {
		if nr := j.NumRows(); nr > 0 {
			a, b := j.Bodies()
			edges = append(edges, island.Edge{A: a, B: b, Ref: int32(i), DOF: nr})
		}
	}
	for ci := range contacts {
		edges = append(edges, island.Edge{
			A: int32(w.Geoms[contacts[ci].A].Body), B: int32(w.Geoms[contacts[ci].B].Body),
			Ref: int32(ci), IsContact: true, DOF: joint.RowsPerContact,
		})
	}
	r.edges = edges
	var islands []island.Island
	isActive := func(i int32) bool { return active(w.Bodies[i]) }
	log.span(spanIsland, func() { islands, _ = r.builder.Build(len(w.Bodies), edges, isActive) })
	out.counts.Islands = len(islands)

	// (e) island processing: velocity integration, then rows and solve
	// per island in island order.
	for _, b := range w.Bodies {
		if active(b) {
			b.IntegrateVelocity(w.Dt)
		} else {
			b.ClearAccumulators()
		}
	}
	if cap(r.jointLoad) < len(w.Joints) {
		r.jointLoad = make([]float64, len(w.Joints))
	}
	load := r.jointLoad[:len(w.Joints)]
	clear(load)
	p := joint.Params{Dt: w.Dt, ERP: w.ERP, CFM: w.CFM}
	solvable := func(i int32) int32 {
		if i >= 0 && !active(w.Bodies[i]) {
			return -1
		}
		return i
	}
	var sst solver.Stats
	for ii := range islands {
		is := &islands[ii]
		if is.DOF > out.counts.MaxRows {
			out.counts.MaxRows = is.DOF
		}
		s := log.begin(spanRows)
		rows := r.rows[:0]
		for _, ji := range is.Joints {
			base := len(rows)
			rows = w.Joints[ji].Rows(w.Bodies, p, ji, rows)
			for ri := base; ri < len(rows); ri++ {
				rows[ri].BodyA = solvable(rows[ri].BodyA)
				rows[ri].BodyB = solvable(rows[ri].BodyB)
			}
		}
		for _, ci := range is.Contacts {
			ct := &contacts[ci]
			a := solvable(int32(w.Geoms[ct.A].Body))
			b := solvable(int32(w.Geoms[ct.B].Body))
			rows = joint.ContactRows(w.Bodies, a, b, ct.Pos, ct.Normal, ct.Depth,
				joint.DefaultMaterial, p, int32(len(rows)), rows)
		}
		r.rows = rows
		log.end(s)
		s = log.begin(spanSolve)
		w.Solver.Solve(w.Bodies, rows, w.Dt, load, &sst, &r.ws)
		log.end(s)
	}
	out.counts.Rows = sst.Rows
	out.rowUpdates = sst.RowUpdates
	out.residual = sst.Residual

	// Integration and pose sync.
	for _, b := range w.Bodies {
		if active(b) {
			out.counts.BodiesIntegrated++
			b.IntegratePosition(w.Dt)
			if w.EnableSleep {
				b.UpdateSleep(w.Dt)
			}
		}
	}
	for _, g := range w.Geoms {
		if g.Body < 0 || !g.Enabled() {
			continue
		}
		b := w.Bodies[g.Body]
		g.Pos = b.Rot.Rotate(g.OffsetPos).Add(b.Pos)
		off := g.OffsetRot
		if off == (m3.Quat{}) {
			off = m3.QIdent
		}
		g.Rot = b.Rot.Mul(off).Mat()
	}

	// (g) cloth.
	pose := func(bi int32) (m3.Vec, m3.Quat) { return w.Bodies[bi].Pos, w.Bodies[bi].Rot }
	for ci, cl := range w.Cloths {
		s := log.begin(spanCloth)
		cl.SatisfyPins(pose)
		cl.Integrate(w.Dt, w.Gravity)
		cl.Relax()
		for _, gi := range r.clothHits[ci] {
			if g := w.Geoms[gi]; g.Enabled() {
				cl.CollideGeom(g)
			}
		}
		cl.UpdateBox()
		log.end(s)
		out.counts.ClothVerts += cl.LastStats.VertexUpdates
	}
	w.Time += w.Dt

	// The incremental sweep's steady-state cost: its second call, after
	// exactly one step of motion. The full sweep on the same boxes says
	// how many pairs it must find.
	refreshAABBs(w)
	log.span(spanIncSAP, func() { r.alt = inc.PairsPrerefreshed(w.Geoms, r.alt[:0]) })
	out.incsapSort = inc.Stats().SortOps
	out.nextPairsInc = len(r.alt)
	out.nextPairs = len(sap.PairsPrerefreshed(w.Geoms, r.alt[:0]))

	log.end(root)
	return out, root, nil
}

// wake is the engine's rule for sleeping bodies: a moving partner wakes a
// sleeper, through a joint or a contact.
func wake(a, b *body.Body) {
	if a.Asleep && moving(b) {
		a.Wake()
	}
	if b.Asleep && moving(a) {
		b.Wake()
	}
}
