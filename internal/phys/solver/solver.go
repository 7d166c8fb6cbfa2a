// Package solver implements the island-processing constraint solver: a
// projected Gauss–Seidel (successive over-relaxation) iteration over the
// mixed linear complementarity problem built from an island's constraint
// rows, in the style of ODE's quickstep. Each row update is one
// fine-grain task in the ParallAX model ("degrees of freedom removed in
// the LCP solver", paper section 7).
package solver

import (
	"math"

	"github.com/parallax-arch/parallax/internal/phys/body"
	"github.com/parallax-arch/parallax/internal/phys/joint"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

// Solver holds the iteration parameters. The paper uses 20 iterations
// per step as recommended by the ODE user guide.
type Solver struct {
	// Iterations is the number of relaxation sweeps per solve.
	Iterations int
	// SOR is the successive over-relaxation factor (1 = pure
	// Gauss-Seidel; ODE quickstep uses ~0.9–1.3).
	SOR float64
}

// New returns a solver with the paper's parameters.
func New() *Solver { return &Solver{Iterations: 20, SOR: 1.0} }

// Stats reports the work done by one Solve call.
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

// Workspace holds the island-local state of one Solve call. A caller keeps
// one per worker thread and passes it back in, so steady-state solving does
// not allocate: the slices grow to the largest island (slotOf: the longest
// body list) seen and are reused. The zero value is ready to use. Solve's
// returned impulses alias lambda, valid until the workspace's next Solve.
type Workspace struct {
	// slotOf maps a world body index to its slot+1 (0 = none). It is all
	// zero between Solves: the scatter clears exactly what the gather set.
	slotOf []int32
	slots  []slot
	aux    []rowAux
	lambda []float64
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
func (s *Solver) Solve(bs []*body.Body, rows []joint.Row, dt float64,
	jointLoad []float64, st *Stats, ws *Workspace) []float64 {

	if st != nil {
		st.Rows += len(rows)
		st.Iterations = s.Iterations
		st.RowUpdates += len(rows) * s.Iterations
	}
	var local Workspace
	if ws == nil {
		ws = &local
	}
	for len(ws.slotOf) < len(bs) {
		ws.slotOf = append(ws.slotOf, 0)
	}
	ws.slots, ws.aux, ws.lambda = ws.slots[:0], ws.aux[:0], ws.lambda[:0]

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
			dl := s.SOR * (r.RHS - vel - r.CFM*lambda[i]) * x.invDen

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

	// Closing pass: joint load feedback, and the residual the sweeps left
	// behind. A row clamped at a bound with the error pushing further out of
	// bounds is satisfied by complementarity, so its error is zeroed.
	for i := range rows {
		r, x := &rows[i], &aux[i]
		if r.Joint >= 0 && int(r.Joint) < len(jointLoad) {
			jointLoad[r.Joint] += math.Abs(lambda[i]) / dt
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
		err := r.RHS - vel - r.CFM*lambda[i]
		lo, hi := r.Lo, r.Hi
		if r.FrictionOf >= 0 {
			limit := r.Mu * math.Abs(lambda[r.FrictionOf])
			lo, hi = -limit, limit
		}
		if lambda[i] <= lo && err < 0 {
			err = 0
		}
		if lambda[i] >= hi && err > 0 {
			err = 0
		}
		if st != nil {
			st.Residual += math.Abs(err)
			st.ImpulseNorm += math.Abs(lambda[i])
		}
	}

	// Scatter: the island owns exactly the bodies it gathered.
	for i := range slots {
		v := &slots[i]
		bs[v.body].LinVel, bs[v.body].AngVel = v.lin, v.ang
		ws.slotOf[v.body] = 0
	}
	return lambda
}
