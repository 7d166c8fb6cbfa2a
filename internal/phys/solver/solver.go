// Package solver implements the island-processing constraint solver: a
// projected Gauss–Seidel iteration over the mixed linear complementarity
// problem built from an island's constraint rows, in the style of ODE's
// quickstep. Each row update is one fine-grain task in the ParallAX model
// ("degrees of freedom removed in the LCP solver", paper section 7).
package solver

import (
	"math"

	"github.com/parallax-arch/parallax/internal/phys/arena"
	"github.com/parallax-arch/parallax/internal/phys/body"
	"github.com/parallax-arch/parallax/internal/phys/joint"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

// Solver holds the iteration parameters. The paper uses 20 iterations
// per step as recommended by the ODE user guide.
type Solver struct {
	// Iterations is the number of relaxation sweeps per solve.
	Iterations int
}

// New returns a solver with the paper's parameters.
func New() *Solver { return &Solver{Iterations: 20} }

// Stats reports the work done by one Solve call, or by one island of a
// SolvePair call.
type Stats struct {
	Rows       int
	Iterations int
	// RowUpdates = Rows * Iterations, the fine-grain task-instance count.
	RowUpdates int

	// Residual is the summed absolute post-iteration row error (the
	// complementarity-aware |RHS - J·v - CFM·λ|, zeroed where the row is
	// clamped at a bound pushing outward). A converged solve is near
	// zero; a blowup is the solver-health signal the anomaly detector
	// watches. Deterministic: accumulated in row order per island.
	Residual float64
	// ImpulseNorm is the summed |λ| over all rows — the total applied
	// impulse magnitude this solve.
	ImpulseNorm float64
}

// count records the size of one island's solve; st may be nil.
func (st *Stats) count(rows, iterations int) {
	if st != nil {
		st.Rows += rows
		st.Iterations = iterations
		st.RowUpdates += rows * iterations
	}
}

// Workspace holds the island-local state of one Solve or SolvePair call. A
// caller keeps one per worker thread and passes it back in, so steady-state
// solving does not allocate: Reserve sizes it for the largest solve seen
// and the solves reuse it. The zero value is ready to use. The returned
// impulses alias the workspace, valid until its next solve.
type Workspace struct {
	// slotOf maps a world body index to its slot+1 (0 = none). It is all
	// zero between Solves: the scatter clears exactly what the gather set.
	slotOf []int32
	slots  []slot
	aux    []rowAux
	lambda []float64
	// pair holds a SolvePair's two islands' rows interleaved, and split
	// its impulses handed back in each island's own row order.
	pair  []joint.Row
	split []float64
}

// slot is one body the island touches: the velocities the sweeps read and
// write, and the inverse mass and world inverse inertia its rows need.
type slot struct {
	lin, ang m3.Vec
	body     int32
	invMass  float64
	invI     m3.Mat
}

// rowAux is the solver's record per row, beside the joint.Row it reads in place:
// endpoint slots (-1 = static), velocity change per unit impulse, 1/(J M⁻¹ Jᵀ + CFM).
type rowAux struct {
	slotA, slotB               int32
	pLinA, pAngA, pLinB, pAngB m3.Vec
	invDen                     float64
}

// Reserve sizes ws for a solve of up to rows rows over a world of bodies
// bodies, so that solve grows nothing. A row touches at most two bodies,
// so it gathers at most min(2×rows, bodies) of them. SolvePair reserves
// for itself on entry; a caller that reserves ahead for its largest solve
// keeps the growth out of the solve.
func (ws *Workspace) Reserve(rows, bodies int) {
	ws.slotOf = arena.Grow(ws.slotOf, bodies)
	ws.slots = arena.Grow(ws.slots, min(2*rows, bodies))[:0]
	ws.aux = arena.Grow(ws.aux, rows)[:0]
	ws.lambda = arena.Grow(ws.lambda, rows)[:0]
	ws.pair = arena.Grow(ws.pair, rows)
	ws.split = arena.Grow(ws.split, rows)
}

// slotFor returns the slot of world body bi (-1 for the static world),
// gathering the body on first touch.
func (ws *Workspace) slotFor(bs []*body.Body, bi int32) int32 {
	if bi < 0 {
		return -1
	}
	if ws.slotOf[bi] == 0 {
		b := bs[bi]
		ws.slots = append(ws.slots, slot{b.LinVel, b.AngVel, bi, b.InvMass, b.InvInertiaWorld()})
		ws.slotOf[bi] = int32(len(ws.slots))
	}
	return ws.slotOf[bi] - 1
}

// Solve runs the PGS iteration for one island's rows: it gathers the bodies
// the rows touch into ws, sweeps over those dense slots, and scatters the
// velocities back to bs once at the end. jointLoad, if non-nil, accumulates
// the constraint force magnitude per joint id (for breakable joints). The
// returned impulses alias ws (see Workspace); a nil ws solves in a temporary.
// It is SolvePair with no second island.
func (s *Solver) Solve(bs []*body.Body, rows []joint.Row, dt float64,
	jointLoad []float64, st *Stats, ws *Workspace) []float64 {

	lam, _ := s.SolvePair(bs, rows, nil, dt, jointLoad, st, nil, ws)
	return lam
}

// SolvePair solves two islands, p and q, in one pass of gather, sweeps and
// scatter. The islands must share no body. Their rows are interleaved into
// ws — row i of p at 2i, row i of q at 2i+1 while both have rows, then the
// longer island's tail — so each sweep carries two independent dependency
// chains, and one core overlaps a row's velocity update with the other
// island's next row. Each island still sees exactly its own rows in its own
// order, so every output is bit-identical to Solve(p) followed by Solve(q):
// the velocities, the impulses (returned in each island's own row order,
// aliasing ws), jointLoad, and stP and stQ, whose float sums are taken in
// each island's row order. Only a pair with rows on both sides pays for the
// copy; with one side empty the other's rows are swept in place.
func (s *Solver) SolvePair(bs []*body.Body, p, q []joint.Row, dt float64,
	jointLoad []float64, stP, stQ *Stats, ws *Workspace) (lamP, lamQ []float64) {

	stP.count(len(p), s.Iterations)
	stQ.count(len(q), s.Iterations)
	var local Workspace
	if ws == nil {
		ws = &local
	}
	ws.Reserve(len(p)+len(q), len(bs))

	// m is the number of rows interleaved from each island (see at).
	rows, m := p, 0
	switch {
	case len(q) == 0:
	case len(p) == 0:
		rows = q
	default:
		m = min(len(p), len(q))
		rows = ws.interleave(p, q, m)
	}

	// Gather, precompute per-row propagation vectors and effective masses,
	// and warm-start. The static-endpoint branches stay, here and below:
	// adding a zero term for a static body would turn a -0 sum into +0.
	for i := range rows {
		r := &rows[i]
		x := rowAux{slotA: ws.slotFor(bs, r.BodyA), slotB: ws.slotFor(bs, r.BodyB)}
		den := r.CFM
		if x.slotA >= 0 {
			a := &ws.slots[x.slotA]
			x.pLinA = r.JLinA.Scale(a.invMass)
			x.pAngA = a.invI.MulVec(r.JAngA)
			den += r.JLinA.Dot(x.pLinA) + r.JAngA.Dot(x.pAngA)
		}
		if x.slotB >= 0 {
			b := &ws.slots[x.slotB]
			x.pLinB = r.JLinB.Scale(b.invMass)
			x.pAngB = b.invI.MulVec(r.JAngB)
			den += r.JLinB.Dot(x.pLinB) + r.JAngB.Dot(x.pAngB)
		}
		if !(den < m3.Eps) { // not den >= Eps: a NaN den stays NaN
			x.invDen = 1 / den
		}
		ws.aux = append(ws.aux, x)
		ws.lambda = append(ws.lambda, 0)
		// Warm starting: re-apply the previous step's impulse, so stacks
		// with persistent contact manifolds converge in far fewer sweeps.
		if w := r.Warm; w != 0 {
			ws.lambda[i] = w
			if x.slotA >= 0 {
				a := &ws.slots[x.slotA]
				a.lin = a.lin.Add(x.pLinA.Scale(w))
				a.ang = a.ang.Add(x.pAngA.Scale(w))
			}
			if x.slotB >= 0 {
				b := &ws.slots[x.slotB]
				b.lin = b.lin.Add(x.pLinB.Scale(w))
				b.ang = b.ang.Add(x.pAngB.Scale(w))
			}
		}
	}
	slots, aux, lambda := ws.slots, ws.aux, ws.lambda
	for it := 0; it < s.Iterations; it++ {
		for i := range rows {
			r, x := &rows[i], &aux[i]
			// Current constraint velocity.
			vel := 0.0
			if x.slotA >= 0 {
				a := &slots[x.slotA]
				vel += r.JLinA.Dot(a.lin) + r.JAngA.Dot(a.ang)
			}
			if x.slotB >= 0 {
				b := &slots[x.slotB]
				vel += r.JLinB.Dot(b.lin) + r.JAngB.Dot(b.ang)
			}
			dl := (r.RHS - vel - r.CFM*lambda[i]) * x.invDen

			lo, hi := r.Lo, r.Hi
			if r.FrictionOf >= 0 {
				limit := r.Mu * math.Abs(lambda[r.FrictionOf])
				lo, hi = -limit, limit
			}
			old := lambda[i]
			nl := old + dl
			if nl < lo {
				nl = lo
			} else if nl > hi {
				nl = hi
			}
			dl = nl - old
			if dl == 0 {
				continue
			}
			lambda[i] = nl

			if x.slotA >= 0 {
				a := &slots[x.slotA]
				a.lin = a.lin.Add(x.pLinA.Scale(dl))
				a.ang = a.ang.Add(x.pAngA.Scale(dl))
			}
			if x.slotB >= 0 {
				b := &slots[x.slotB]
				b.lin = b.lin.Add(x.pLinB.Scale(dl))
				b.ang = b.ang.Add(x.pAngB.Scale(dl))
			}
		}
	}

	// Each island's impulses in its own row order: for a single island the
	// swept list itself, for an interleaved pair a split copy.
	lamP, lamQ = lambda, lambda[len(lambda):]
	if len(p) == 0 {
		lamP, lamQ = lambda[:0], lambda
	}
	if m > 0 {
		lamP, lamQ = ws.split[:len(p)], ws.split[len(p):len(rows)]
		for i := 0; i < m; i++ {
			lamP[i], lamQ[i] = lambda[2*i], lambda[2*i+1]
		}
		// One of the two has a tail; the other copy is empty.
		copy(lamP[m:], lambda[2*m:])
		copy(lamQ[m:], lambda[2*m:])
	}
	ws.closingPass(p, lamP, m, 0, dt, jointLoad, stP)
	ws.closingPass(q, lamQ, m, 1, dt, jointLoad, stQ)

	// Scatter: the islands own exactly the bodies they gathered.
	for i := range slots {
		v := &slots[i]
		bs[v.body].LinVel, bs[v.body].AngVel = v.lin, v.ang
		ws.slotOf[v.body] = 0
	}
	return lamP, lamQ
}

// at is the position in a SolvePair sweep of row i of island lane (0 = p,
// 1 = q) when the first m rows of each are interleaved. With m = 0 it is i:
// a single island is swept in its own order.
func at(i int32, m int, lane int32) int32 {
	if int(i) < m {
		return 2*i + lane
	}
	return int32(m) + i
}

// interleave copies p and q into ws.pair, the first m rows of each
// alternating and then the longer one's tail, with each friction row's
// FrictionOf moved to where its normal row now sits.
func (ws *Workspace) interleave(p, q []joint.Row, m int) []joint.Row {
	rows := ws.pair[:0]
	for i := 0; i < m; i++ {
		rows = append(rows, p[i], q[i])
	}
	rows = append(rows, p[m:]...)
	rows = append(rows, q[m:]...)
	for lane, src := range [2][]joint.Row{p, q} {
		for i := range src {
			if f := src[i].FrictionOf; f >= 0 {
				rows[at(int32(i), m, int32(lane))].FrictionOf = at(f, m, int32(lane))
			}
		}
	}
	ws.pair = rows
	return rows
}

// closingPass runs over one island's rows after the sweeps, in that
// island's own order: joint load feedback, and the residual the sweeps
// left behind. lam holds the island's impulses in its own row order; row
// i's aux is at at(i, m, lane). A row clamped at a bound with the error
// pushing further out of bounds is satisfied by complementarity, so its
// error is zeroed.
func (ws *Workspace) closingPass(rows []joint.Row, lam []float64, m int, lane int32,
	dt float64, jointLoad []float64, st *Stats) {

	slots, aux := ws.slots, ws.aux
	for i := range rows {
		r, x := &rows[i], &aux[at(int32(i), m, lane)]
		if r.Joint >= 0 && int(r.Joint) < len(jointLoad) {
			jointLoad[r.Joint] += math.Abs(lam[i]) / dt
		}
		vel := 0.0
		if x.slotA >= 0 {
			a := &slots[x.slotA]
			vel += r.JLinA.Dot(a.lin) + r.JAngA.Dot(a.ang)
		}
		if x.slotB >= 0 {
			b := &slots[x.slotB]
			vel += r.JLinB.Dot(b.lin) + r.JAngB.Dot(b.ang)
		}
		err := r.RHS - vel - r.CFM*lam[i]
		lo, hi := r.Lo, r.Hi
		if r.FrictionOf >= 0 {
			limit := r.Mu * math.Abs(lam[r.FrictionOf])
			lo, hi = -limit, limit
		}
		if lam[i] <= lo && err < 0 {
			err = 0
		}
		if lam[i] >= hi && err > 0 {
			err = 0
		}
		if st != nil {
			st.Residual += math.Abs(err)
			st.ImpulseNorm += math.Abs(lam[i])
		}
	}
}
