package world

import (
	"slices"

	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/arena"
	"github.com/parallax-arch/parallax/internal/phys/body"
	"github.com/parallax-arch/parallax/internal/phys/broadphase"
	"github.com/parallax-arch/parallax/internal/phys/cloth"
	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/island"
	"github.com/parallax-arch/parallax/internal/phys/joint"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

// StepsPerFrame is how many simulation steps make one rendered frame:
// the paper executes 3 steps of 0.01 s per 30 FPS frame to keep fast
// objects from tunneling.
const StepsPerFrame = 3

// Step advances the simulation by one Dt, running the five phases and
// recording the step profile. The steady-state hot path is
// allocation-free: all per-step working storage lives in the World's
// scratch arena and is reused across steps (see DESIGN.md
// "Scratch-arena memory model"). Step is the serial root of the
// allocation check: everything it reaches is covered transitively.
//
//paraxlint:noalloc
func (w *World) Step() {
	w.Profile.reset()
	w.scratch.beginStep(w.threads, len(w.Joints), w.prevEdges)
	l0 := w.laneFor(0)
	l0.Begin(w.spans[spanStep])

	w.applyGravity()
	w.broadPhase(l0)
	w.narrowPhase(l0)
	w.createIslands(l0)
	w.processIslands(l0)
	w.breakJoints()
	w.integrate(l0)
	w.stepCloths(l0)
	w.expireBlasts()

	// Advance time. The pair and edge counts seed next step's buffer
	// pre-sizing.
	w.Time += w.Dt
	w.prevPairs = len(w.pairBuf)
	w.prevEdges = len(w.scratch.edges)
	w.recordStepMetrics(&w.Profile)
	w.recordTelemetry(&w.Profile)
	l0.End(w.spans[spanStep])
}

// applyGravity adds the external force to every active body, and
// refreshes the cloth bounding-volume proxies and resets their contact
// lists ahead of the broad phase.
func (w *World) applyGravity() {
	for _, b := range w.Bodies {
		if b.Enabled && b.InvMass > 0 && !b.Asleep {
			b.AddForce(w.Gravity.Scale(b.Mass))
		}
	}
	for ci, gi := range w.clothProxy {
		c := w.Cloths[ci]
		g := w.Geoms[gi]
		w.clothProxyShape[ci].Half = c.Box.Extent().Scale(0.5)
		g.Pos = c.Box.Center()
		w.clothContacts[ci] = w.clothContacts[ci][:0]
	}
}

// broadPhase produces the candidate pair list. The AABB refresh runs
// chunk-parallel ahead of the pair pass. The default Broad is
// SweepAndPrune, a full sort-and-sweep of every enabled geom each step
// (DESIGN.md "Incremental broad phase" has the measured reason
// IncrementalSAP is not the default), and its pass is chunk-parallel
// too: the order update runs serially (Prepare), the sweep as one chunk
// of start positions per thread, and Merge sorts the union of the
// chunks' pairs into the one canonical order, so the list does not
// depend on the chunking. Any other Broad runs its pass serially.
// Per-chunk counters merge in chunk order, so the profile (and its
// replay digest) is byte-identical to a serial pass.
func (w *World) broadPhase(l0 *obs.Lane) {
	l0.Begin(w.spans[spanBroad])
	prof := &w.Profile
	sc := &w.scratch
	w.runChunks(phaseRefresh, len(w.Geoms))
	dst := arena.Grow(w.pairBuf, w.prevPairs)[:0]
	if sap, ok := w.Broad.(*broadphase.SweepAndPrune); ok {
		sc.sap = sap
		k := w.runChunks(phaseSweep, sap.Prepare(w.Geoms))
		w.pairBuf = sap.Merge(sc.sweep[:k], sc.sweepTests[:k], dst)
	} else {
		w.pairBuf = w.Broad.PairsPrerefreshed(w.Geoms, dst)
	}
	prof.Broad = w.Broad.Stats()
	for _, r := range sc.refresh {
		prof.Broad.Geoms += r[0]
		prof.Broad.AABBUpdates += r[1]
	}
	prof.Pairs = len(w.pairBuf)
	l0.End(w.spans[spanBroad])
}

// narrowPhase generates contacts plus the special-contact events
// (explosions, blast hits, cloth contact lists). Massively parallel:
// pairs are partitioned into equal sets per worker thread, each with its
// own contact buffer (the engine modification described in the paper
// that removes ODE's single-joint-group serialization).
func (w *World) narrowPhase(l0 *obs.Lane) {
	l0.Begin(w.spans[spanNarrow])
	prof := &w.Profile
	sc := &w.scratch
	w.runChunks(phaseNarrow, len(w.pairBuf))

	// Merge per-chunk results in chunk order (deterministic).
	contacts := sc.contacts
	for i := range sc.narrow {
		e := &sc.narrow[i]
		contacts = append(contacts, e.contacts...)
		prof.Narrow.PairsTested += e.stats.PairsTested
		prof.Narrow.ContactsOut += e.stats.ContactsOut
		prof.Narrow.TriTests += e.stats.TriTests
		prof.Narrow.PrimTests += e.stats.PrimTests
		if e.stats.DeepestDepth > prof.Narrow.DeepestDepth {
			prof.Narrow.DeepestDepth = e.stats.DeepestDepth
		}
	}
	sc.contacts = contacts
	prof.Contacts = len(contacts)

	// Serial event processing: explosions, blasts, fracture, cloth lists.
	// An explosive touching several geoms is reported once per pair;
	// detonate ignores all but the first (the geom is then disabled and
	// its spec consumed).
	for i := range sc.narrow {
		for _, gidx := range sc.narrow[i].explosions {
			w.detonate(gidx, prof)
		}
	}
	for i := range sc.narrow {
		for _, hit := range sc.narrow[i].blastHits {
			w.blastHit(hit[0], hit[1], prof)
		}
		for _, hit := range sc.narrow[i].blastCloth {
			w.blastHitCloth(hit[0], hit[1])
		}
		for _, hit := range sc.narrow[i].clothHits {
			w.clothContacts[hit[0]] = append(w.clothContacts[hit[0]], hit[1])
		}
	}

	// Wake sleeping bodies hit by something that is actually moving;
	// resting contacts must not keep bodies awake forever. Joints
	// propagate wake the same way: a moving body drags its jointed
	// partner awake before islands are built, so the partner joins the
	// island instead of being silently anchored.
	if w.EnableSleep {
		for _, j := range w.Joints {
			if j.NumRows() == 0 {
				continue
			}
			ja, jb := j.Bodies()
			if ja >= 0 && w.Bodies[ja].Asleep && jb >= 0 && w.bodyMoving(int(jb)) {
				w.Bodies[ja].Wake()
			}
			if jb >= 0 && w.Bodies[jb].Asleep && ja >= 0 && w.bodyMoving(int(ja)) {
				w.Bodies[jb].Wake()
			}
		}
		for i := range contacts {
			c := &contacts[i]
			ba, bb := w.Geoms[c.A].Body, w.Geoms[c.B].Body
			if ba >= 0 && w.Bodies[ba].Asleep && bb >= 0 && w.bodyMoving(bb) {
				w.Bodies[ba].Wake()
			}
			if bb >= 0 && w.Bodies[bb].Asleep && ba >= 0 && w.bodyMoving(ba) {
				w.Bodies[bb].Wake()
			}
		}
	}
	l0.End(w.spans[spanNarrow])
}

// createIslands groups the step's joints and contacts into islands. Edge
// collection runs chunk-parallel over the combined joint+contact domain
// into per-chunk buffers; chunks are contiguous ranges of the serial
// iteration order, so concatenating them in chunk order reproduces the
// serial edge list exactly. The union-find merge itself stays serial
// (the paper's irreducible serial core), but it is now the only serial
// part of the phase.
func (w *World) createIslands(l0 *obs.Lane) {
	l0.Begin(w.spans[spanIslandGen])
	prof := &w.Profile
	sc := &w.scratch
	contacts := sc.contacts
	w.runChunks(phaseEdge, len(w.Joints)+len(contacts))
	edges := sc.edges
	for i := range sc.edgeChunks {
		edges = append(edges, sc.edgeChunks[i]...)
	}
	sc.edges = edges
	islands, findSteps := sc.builder.Build(len(w.Bodies), edges, w.activeFn)
	sc.islands = islands
	prof.FindSteps = findSteps
	for _, is := range islands {
		prof.Islands = append(prof.Islands, IslandStat{
			Bodies: len(is.Bodies), Joints: len(is.Joints),
			Contacts: len(is.Contacts), DOF: is.DOF,
		})
	}
	if w.RecordDetail {
		w.recordDetail(prof)
	}
	l0.End(w.spans[spanIslandGen])
}

// recordDetail copies the step's pair list, contact geoms and island
// membership into the profile. The copies are freshly allocated: they
// are retained by the architecture model far beyond this step, so they
// must not alias the scratch arena.
//
//paraxlint:coldpath capture mode only (RecordDetail); the copies must outlive the arena
func (w *World) recordDetail(prof *StepProfile) {
	contacts, islands := w.scratch.contacts, w.scratch.islands
	prof.PairList = append([]broadphase.Pair(nil), w.pairBuf...)
	prof.ContactGeoms = make([][2]int32, len(contacts))
	for i := range contacts {
		prof.ContactGeoms[i] = [2]int32{contacts[i].A, contacts[i].B}
	}
	prof.IslandBodies = make([][]int32, len(islands))
	prof.IslandRowsOf = make([][]int32, len(islands))
	for i, is := range islands {
		prof.IslandBodies[i] = append([]int32(nil), is.Bodies...)
		prof.IslandRowsOf[i] = append([]int32(nil), is.Joints...)
	}
}

// processIslands forward-simulates each island. Islands are
// independent; big ones go on the work queue, small ones run on the
// main thread, which then works the queue with the pool.
func (w *World) processIslands(l0 *obs.Lane) {
	l0.Begin(w.spans[spanIslandProc])
	prof := &w.Profile
	sc := &w.scratch
	contacts, islands := sc.contacts, sc.islands
	sc.beginIslands(len(islands), len(contacts), w.WarmStart)

	// Warm starting: match this step's contacts to last step's impulses
	// by (geom pair, ordinal within the pair's manifold). The broad phase
	// emits each pair once, in (A, B) order, and the narrow phase keeps
	// that order and each pair's orientation, so the merged contact list
	// is strictly increasing in (pair, ordinal): the ordinal is a run
	// length, and last step's entries — kept in that same order — are
	// found by one merge pass. Each contact's entry carries last step's
	// impulses into solveIsland and this step's out of it.
	if w.WarmStart {
		next, prev := sc.warmNext, w.warm
		for ci := range contacts {
			e := warmEntry{pair: uint64(uint32(contacts[ci].A))<<32 | uint64(uint32(contacts[ci].B))}
			if ci > 0 && next[ci-1].pair == e.pair {
				e.ord = next[ci-1].ord + 1
			}
			for len(prev) > 0 && prev[0].before(e.pair, e.ord) {
				prev = prev[1:]
			}
			if len(prev) > 0 && prev[0].pair == e.pair && prev[0].ord == e.ord {
				e.lambda = prev[0].lambda
			}
			next[ci] = e
		}
	}

	// Velocity integration, hoisted out of the per-island solves into
	// one chunk-parallel pass: every active body is in exactly one
	// island, so the same integrations happen exactly once, and
	// inactive bodies get their accumulator clear here instead of in a
	// separate end-of-step loop. Row assembly below reads only the
	// solving island's own (already integrated) bodies, so results are
	// bit-identical to the per-island ordering.
	w.runChunks(phaseVel, len(w.Bodies))

	for i, is := range islands {
		if is.DOF > SmallIslandDOF {
			sc.queued = append(sc.queued, int32(i))
		} else {
			sc.main = append(sc.main, int32(i))
		}
	}
	w.run(phaseIsland, sc.queued, sc.main)

	prof.Solver.Iterations = w.Solver.Iterations
	for i := range islands {
		prof.Solver.Rows += sc.solverStats[i].Rows
		prof.Solver.RowUpdates += sc.solverStats[i].RowUpdates
		// Float sums merge in island index order — not worker completion
		// order — so the totals are thread-count deterministic.
		prof.Solver.Residual += sc.solverStats[i].Residual
		prof.Solver.ImpulseNorm += sc.solverStats[i].ImpulseNorm
	}
	if w.WarmStart {
		// Next step's list is the entries of the contacts an island
		// solved, still in contact order — so its contents are
		// deterministic whatever worker solved each island. The list it
		// replaces becomes the buffer the step after builds in.
		next, n := sc.warmNext, 0
		for ci := range contacts {
			if sc.rowBase[ci] >= 0 {
				next[n] = next[ci]
				n++
			}
		}
		w.warm, sc.warmNext = next[:n], w.warm
	}
	l0.End(w.spans[spanIslandProc])
}

// breakJoints checks the breakable joints: one whose applied load
// exceeded its threshold breaks (serial, cheap).
func (w *World) breakJoints() {
	for ji, load := range w.scratch.jointLoad {
		if load == 0 {
			continue
		}
		if br, ok := w.Joints[ji].(*joint.Breakable); ok {
			if br.ApplyLoad(load) {
				w.Profile.JointBreaks++
			}
		}
	}
}

// integrate runs position integration + sleep-clock update over the
// bodies, then geom-pose sync over the geoms, both chunk-parallel.
// Hoisted out of the per-island solves; islands touch disjoint bodies,
// so integrating after all solves complete is bit-identical, and the
// per-chunk integration counts merged in chunk order equal the
// per-island body sum the serial version recorded.
func (w *World) integrate(l0 *obs.Lane) {
	l0.Begin(w.spans[spanIntegrate])
	w.runChunks(phasePos, len(w.Bodies))
	for _, n := range w.scratch.integ {
		w.Profile.BodiesIntegrated += n
	}
	w.runChunks(phaseSync, len(w.Geoms))
	l0.End(w.spans[spanIntegrate])
}

// stepCloths forward-steps every cloth object: one queued item per
// cloth, claimed by the calling goroutine and the pool workers alike
// (there are no main items — no cloth is too small to be worth a claim);
// vertices are the fine-grain tasks. The span is recorded even with no
// cloth in the scene so every trace carries all five phases.
func (w *World) stepCloths(l0 *obs.Lane) {
	l0.Begin(w.spans[spanCloth])
	if len(w.Cloths) > 0 {
		prof := &w.Profile
		sc := &w.scratch
		sc.clothStats = sc.clothStats[:0]
		sc.clothIdx = sc.clothIdx[:0]
		for ci := range w.Cloths {
			sc.clothStats = append(sc.clothStats, cloth.Stats{})
			sc.clothIdx = append(sc.clothIdx, int32(ci))
			prof.ClothVerts = append(prof.ClothVerts, w.Cloths[ci].NumVertices())
		}
		w.run(phaseCloth, sc.clothIdx, nil)
		for i := range sc.clothStats {
			st := &sc.clothStats[i]
			prof.Cloth.VertexUpdates += st.VertexUpdates
			prof.Cloth.ConstraintUpdates += st.ConstraintUpdates
			prof.Cloth.CollisionTests += st.CollisionTests
			prof.Cloth.RayCasts += st.RayCasts
		}
	}
	l0.End(w.spans[spanCloth])
}

// expireBlasts ages the blast volumes. Expired volumes are disabled and
// their geom slots staged for reuse by future detonations; slots freed
// this step (consumed explosives, expired blasts) become reusable now
// that no in-step reference to them remains.
func (w *World) expireBlasts() {
	live := w.Blasts[:0]
	for _, bl := range w.Blasts {
		bl.Remaining -= w.Dt
		if bl.Remaining > 0 {
			if w.blastOfGeom != nil {
				w.blastOfGeom[bl.Geom] = int32(len(live))
			}
			live = append(live, bl)
		} else {
			delete(w.blastOfGeom, bl.Geom)
			w.Geoms[bl.Geom].Flags |= geom.FlagDisabled
			w.geomFreeStaged = append(w.geomFreeStaged, bl.Geom)
		}
	}
	w.Blasts = live
	if len(w.geomFreeStaged) > 0 {
		w.geomFree = append(w.geomFree, w.geomFreeStaged...)
		w.geomFreeStaged = w.geomFreeStaged[:0]
	}
}

// narrowChunk is the narrow-phase worker: it tests one chunk of the
// candidate pair list, writing into that chunk's event buffers.
func (w *World) narrowChunk(chunk, lo, hi int) {
	e := &w.scratch.narrow[chunk]
	for _, pr := range w.pairBuf[lo:hi] {
		a, b := w.Geoms[pr.A], w.Geoms[pr.B]
		aC, bC := a.Flags.Has(geom.FlagCloth), b.Flags.Has(geom.FlagCloth)
		aB, bB := a.Flags.Has(geom.FlagBlast), b.Flags.Has(geom.FlagBlast)
		switch {
		case aC || bC:
			// (c.iii) body touching a cloth's bounding volume goes on
			// the cloth's contact list; a blast volume overlapping it
			// instead applies the shockwave to the cloth's vertices.
			if aC && bB {
				e.blastCloth = append(e.blastCloth, [2]int32{int32(b.ID), a.Aux})
			}
			if bC && aB {
				e.blastCloth = append(e.blastCloth, [2]int32{int32(a.ID), b.Aux})
			}
			if aC && !bB && !bC {
				e.clothHits = append(e.clothHits, [2]int32{a.Aux, int32(b.ID)})
			}
			if bC && !aB && !aC {
				e.clothHits = append(e.clothHits, [2]int32{b.Aux, int32(a.ID)})
			}
		case aB || bB:
			// (c.iv) blast volume interactions.
			if aB && !bB {
				e.blastHits = append(e.blastHits, [2]int32{int32(a.ID), int32(b.ID)})
			} else if bB && !aB {
				e.blastHits = append(e.blastHits, [2]int32{int32(b.ID), int32(a.ID)})
			}
		default:
			start := len(e.contacts)
			e.contacts = e.scr.Collide(a, b, e.contacts, &e.stats)
			if len(e.contacts) > start {
				// (c.ii) explosive objects detonate on contact instead
				// of generating constraints.
				exploded := false
				if a.Flags.Has(geom.FlagExplosive) {
					e.explosions = append(e.explosions, int32(a.ID))
					exploded = true
				}
				if b.Flags.Has(geom.FlagExplosive) {
					e.explosions = append(e.explosions, int32(b.ID))
					exploded = true
				}
				if exploded {
					e.contacts = e.contacts[:start]
				}
			}
		}
	}
}

// solveIsland forward-simulates one island: row assembly into the
// worker's reusable row buffer and the LCP solve with the worker's
// workspace. Velocity and position integration are chunk-parallel
// passes outside the island solves (see processIslands). Islands touch
// disjoint bodies, joints and contacts, so concurrent island solves
// never share mutable state.
func (w *World) solveIsland(worker, idx int) {
	sc := &w.scratch
	is := &sc.islands[idx]
	p := w.params()
	rows := sc.rows[worker][:0]
	for _, ji := range is.Joints {
		base := len(rows)
		rows = w.Joints[ji].Rows(w.Bodies, p, ji, rows)
		// A joint may reference a body that belongs to no island — asleep
		// with a partner too slow to wake it, or disabled. Freeze that
		// endpoint: sleeping zeroes velocity, so treating it as static is
		// exact, and the solver must never write into a body another
		// island might also touch.
		for ri := base; ri < len(rows); ri++ {
			r := &rows[ri]
			if r.BodyA >= 0 && !w.bodySolvable(r.BodyA) {
				r.BodyA = -1
			}
			if r.BodyB >= 0 && !w.bodySolvable(r.BodyB) {
				r.BodyB = -1
			}
		}
	}
	for _, ci := range is.Contacts {
		c := &sc.contacts[ci]
		a := int32(w.Geoms[c.A].Body)
		b := int32(w.Geoms[c.B].Body)
		// Same freezing for contacts: a resting touch does not wake a
		// sleeping body, so the contact anchors against it instead.
		if a >= 0 && !w.bodySolvable(a) {
			a = -1
		}
		if b >= 0 && !w.bodySolvable(b) {
			b = -1
		}
		base := int32(len(rows))
		sc.rowBase[ci] = base
		rows = joint.ContactRows(w.Bodies, a, b, c.Pos, c.Normal, c.Depth,
			joint.DefaultMaterial, p, base, rows)
		if w.WarmStart {
			for j, lambda := range sc.warmNext[ci].lambda {
				rows[int(base)+j].Warm = lambda // zero (no warm start) if last step had no such contact
			}
		}
	}
	sc.rows[worker] = rows // keep the grown capacity for the next island
	lane := w.laneFor(worker)
	lane.Begin(w.spans[spanSolve])
	lam := w.Solver.Solve(w.Bodies, rows, w.Dt, sc.jointLoad,
		&sc.solverStats[idx], &sc.ws[worker])
	lane.End(w.spans[spanSolve])
	if w.WarmStart {
		for _, ci := range is.Contacts {
			copy(sc.warmNext[ci].lambda[:], lam[sc.rowBase[ci]:])
		}
	}
}

// refreshChunk is the broad-phase AABB refresh worker: it recomputes
// the bounding boxes of one chunk of the geom list, counting into that
// chunk's merge slot so the profile totals match the serial refresh.
func (w *World) refreshChunk(chunk, lo, hi int) {
	n := 0
	for _, g := range w.Geoms[lo:hi] {
		if !g.Enabled() {
			continue
		}
		g.UpdateAABB()
		n++
	}
	w.scratch.refresh[chunk] = [2]int{n, n}
}

// sweepChunk is the broad-phase sweep worker: it sweeps one chunk of the
// start positions into that chunk's pair buffer. The buffer is pre-sized
// from the previous step's whole pair count, as pairBuf is — no chunk
// finds more — so it does not regrow each time its chunk's share of the
// pairs rises, nor on the first step after a Restore.
func (w *World) sweepChunk(chunk, lo, hi int) {
	sc := &w.scratch
	buf := slices.Grow(sc.sweep[chunk][:0], w.prevPairs)
	sc.sweep[chunk], sc.sweepTests[chunk] = sc.sap.SweepRange(lo, hi, buf)
}

// edgeChunk collects island edges for one chunk of the combined
// joint+contact domain (joints first, then contacts, matching the
// serial order) into that chunk's buffer.
func (w *World) edgeChunk(chunk, lo, hi int) {
	sc := &w.scratch
	buf := sc.edgeChunks[chunk][:0]
	nj := len(w.Joints)
	for i := lo; i < hi; i++ {
		if i < nj {
			j := w.Joints[i]
			nr := j.NumRows()
			if nr == 0 {
				continue
			}
			a, b := j.Bodies()
			buf = append(buf, island.Edge{A: a, B: b, Ref: int32(i), DOF: nr})
		} else {
			ci := i - nj
			c := &sc.contacts[ci]
			buf = append(buf, island.Edge{
				A: int32(w.Geoms[c.A].Body), B: int32(w.Geoms[c.B].Body),
				Ref: int32(ci), IsContact: true, DOF: joint.RowsPerContact,
			})
		}
	}
	sc.edgeChunks[chunk] = buf
}

// velChunk integrates velocities for active bodies (consuming and
// clearing their force accumulators) and clears the accumulators of
// inactive ones — the work the per-island solves and the end-of-step
// cleanup loop previously split between them. IntegrateVelocity must
// not run on asleep bodies (it does not check Asleep itself), hence
// the explicit active predicate.
func (w *World) velChunk(chunk, lo, hi int) {
	for _, b := range w.Bodies[lo:hi] {
		if b.Enabled && b.InvMass > 0 && !b.Asleep {
			b.IntegrateVelocity(w.Dt)
		} else {
			b.ClearAccumulators()
		}
	}
}

// posChunk integrates positions and advances sleep clocks for active
// bodies, counting them into the chunk's merge slot. The active set
// cannot change between island construction and this pass, so the
// merged count equals the per-island body sum. A body is counted even
// if UpdateSleep puts it to sleep within this very call — it was
// integrated this step.
func (w *World) posChunk(chunk, lo, hi int) {
	n := 0
	for _, b := range w.Bodies[lo:hi] {
		if b.Enabled && b.InvMass > 0 && !b.Asleep {
			n++
			b.IntegratePosition(w.Dt)
			if w.EnableSleep {
				b.UpdateSleep(w.Dt)
			}
		}
	}
	w.scratch.integ[chunk] = n
}

// syncChunk writes body poses through to the geoms of one chunk of the
// geom list. Geoms are written disjointly and bodies only read, so
// chunks never conflict.
func (w *World) syncChunk(chunk, lo, hi int) {
	for _, g := range w.Geoms[lo:hi] {
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
}

// stepCloth forward-steps one cloth object.
func (w *World) stepCloth(ci int) {
	c := w.Cloths[ci]
	c.SatisfyPins(w.poseFn)
	c.Integrate(w.Dt, w.Gravity)
	c.Relax()
	for _, gi := range w.clothContacts[ci] {
		g := w.Geoms[gi]
		if g.Enabled() {
			c.CollideGeom(g)
		}
	}
	c.UpdateBox()
	w.scratch.clothStats[ci] = c.LastStats
}

// bodySolvable reports whether the solver may read and write a body's
// velocities: enabled, finite mass, awake. Inactive bodies belong to no
// island, so two islands solved on different workers could otherwise
// race on them through shared joint or contact rows.
func (w *World) bodySolvable(bi int32) bool {
	b := w.Bodies[bi]
	return b.Enabled && b.InvMass > 0 && !b.Asleep
}

// bodyMoving reports whether a body is awake and above the sleep speed
// thresholds — the "is the thing that hit me actually moving" test for
// waking sleeping bodies.
func (w *World) bodyMoving(bi int) bool {
	b := w.Bodies[bi]
	return !b.Asleep &&
		(b.LinVel.Len2() > body.SleepLinVel*body.SleepLinVel ||
			b.AngVel.Len2() > body.SleepAngVel*body.SleepAngVel)
}

// bodyPose reports a body's pose for cloth pinning.
//
//paraxlint:noalloc
func (w *World) bodyPose(bi int32) (m3.Vec, m3.Quat) {
	b := w.Bodies[bi]
	return b.Pos, b.Rot
}

// StepFrame advances one rendered frame (StepsPerFrame steps) and
// returns the aggregated frame profile.
func (w *World) StepFrame() FrameProfile {
	var f FrameProfile
	for i := 0; i < StepsPerFrame; i++ {
		w.Step()
		f.Add(w.Profile)
	}
	return f
}

// detonate replaces an explosive geom with its blast volume. The
// consumed spec is deleted and the explosive's geom slot staged for
// reuse — a detonated explosive never comes back, and leaving its geom
// and spec behind would grow the world without bound in long-running
// explosion scenes. The blast volume itself takes a recycled slot when
// one is free (from a previous step; slots freed this step are not yet
// reusable).
//
//paraxlint:coldpath fires once per explosive; builds the blast geom and its hit sets
func (w *World) detonate(gidx int32, prof *StepProfile) {
	g := w.Geoms[gidx]
	if !g.Enabled() {
		return
	}
	spec, ok := w.Explosives[gidx]
	if !ok {
		return
	}
	pos := g.Pos
	w.DisableBodyGeom(gidx)
	delete(w.Explosives, gidx)
	// Prefractured explosives keep their slot: the fracture table still
	// references the parent geom.
	if !g.Flags.Has(geom.FlagPrefractured) {
		if g.Body >= 0 {
			w.bodyGeom[g.Body] = -1
		}
		w.geomFreeStaged = append(w.geomFreeStaged, gidx)
	}
	id := len(w.Geoms)
	if n := len(w.geomFree); n > 0 {
		id = int(w.geomFree[n-1])
		w.geomFree = w.geomFree[:n-1]
	}
	bg := &geom.Geom{
		ID:    id,
		Shape: geom.Sphere{R: spec.Radius},
		Pos:   pos,
		Rot:   m3.Ident,
		Body:  -1,
		Flags: geom.FlagBlast,
	}
	bg.UpdateAABB()
	if id == len(w.Geoms) {
		w.Geoms = append(w.Geoms, bg)
	} else {
		w.Geoms[id] = bg
	}
	if w.blastOfGeom == nil {
		w.blastOfGeom = make(map[int32]int32)
	}
	w.blastOfGeom[int32(bg.ID)] = int32(len(w.Blasts))
	w.Blasts = append(w.Blasts, Blast{
		Geom: int32(bg.ID), Remaining: spec.Duration, Impulse: spec.Impulse,
		hit: make(map[int32]bool), hitCloth: make(map[int32]bool),
	})
	prof.Explosions++
}

// blastHitCloth applies a blast volume's shockwave to a cloth whose
// bounding volume it overlaps: every particle inside the blast sphere
// gets a radial velocity kick scaled by proximity, with the blast's
// impulse spread over the cloth's particles. Like rigid bodies, each
// cloth is hit at most once per blast.
func (w *World) blastHitCloth(blastGeom, clothIdx int32) {
	bg := w.Geoms[blastGeom]
	if !bg.Enabled() {
		return
	}
	bi, ok := w.blastOfGeom[blastGeom]
	if !ok {
		return
	}
	blast := &w.Blasts[bi]
	if blast.Impulse == 0 {
		return
	}
	if blast.hitCloth[clothIdx] {
		return
	}
	blast.hitCloth[clothIdx] = true
	c := w.Cloths[clothIdx]
	r := bg.Shape.(geom.Sphere).R
	c.ApplyBlast(bg.Pos, r, blast.Impulse/float64(c.NumVertices()), w.Dt)
}

// blastHit applies a blast volume's effect to a geom it overlaps:
// prefractured objects shatter; dynamic bodies receive a radial impulse.
// The owning Blast is found through the geom-id index, not a scan, so
// Detonation/Mix-style scenes with many simultaneous blasts stay
// O(hits) per step.
func (w *World) blastHit(blastGeom, other int32, prof *StepProfile) {
	bg := w.Geoms[blastGeom]
	og := w.Geoms[other]
	if !bg.Enabled() || !og.Enabled() {
		return
	}
	if og.Flags.Has(geom.FlagPrefractured) {
		if fi, ok := w.fractureOfGeom[other]; ok && !w.Fractures[fi].Broken {
			w.shatter(fi, bg.Pos, prof)
		}
		return
	}
	if og.Body < 0 {
		return
	}
	bi, ok := w.blastOfGeom[blastGeom]
	if !ok {
		return
	}
	blast := &w.Blasts[bi]
	if blast.Impulse == 0 {
		return
	}
	if blast.hit[int32(og.Body)] {
		return // the shockwave already reached this body
	}
	blast.hit[int32(og.Body)] = true
	impulse := blast.Impulse
	b := w.Bodies[og.Body]
	r := bg.Shape.(geom.Sphere).R
	d := b.Pos.Sub(bg.Pos)
	dist := d.Len()
	if dist >= r {
		return
	}
	dir := d.Norm()
	if dir == m3.Zero {
		dir = m3.V(0, 1, 0)
	}
	scale := 1 - dist/r
	b.Wake()
	b.ApplyImpulse(dir.Scale(impulse*scale), b.Pos)
}

// shatter breaks a prefractured object: the parent is disabled and its
// debris pieces are enabled at their positions relative to the parent's
// current pose, inheriting its linear velocity plus a radial kick away
// from the blast center. Debris state left over from before the pieces
// were disabled (velocities, accumulated forces, sleep state) is fully
// reset, so debris never spawns spinning or asleep.
func (w *World) shatter(fi int32, blastPos m3.Vec, prof *StepProfile) {
	fr := &w.Fractures[fi]
	fr.Broken = true
	pg := w.Geoms[fr.Parent]
	var vel m3.Vec
	parentPos := pg.Pos
	var parentRot m3.Quat = m3.QIdent
	if pg.Body >= 0 {
		pb := w.Bodies[pg.Body]
		vel = pb.LinVel
		parentPos = pb.Pos
		parentRot = pb.Rot
	}
	w.DisableBodyGeom(fr.Parent)
	for i, di := range fr.Debris {
		dg := w.Geoms[di]
		w.EnableBodyGeom(di)
		if dg.Body >= 0 {
			db := w.Bodies[dg.Body]
			db.Pos = parentRot.Rotate(fr.LocalPos[i]).Add(parentPos)
			db.Rot = parentRot.Mul(fr.LocalRot[i])
			kick := db.Pos.Sub(blastPos).Norm().Scale(2.0)
			db.LinVel = vel.Add(kick)
			db.AngVel = m3.Zero
			dg.Pos = db.Pos
			dg.Rot = db.Rot.Mat()
			dg.UpdateAABB()
		}
	}
	prof.FractureHit++
}
