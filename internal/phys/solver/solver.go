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

// Workspace holds the per-row temporaries one Solve call needs. A
// caller that steps repeatedly keeps one Workspace per worker thread and
// passes it back in, so steady-state solving does not allocate: the
// slices grow to the largest island seen and are then reused.
type Workspace struct {
	pLinA, pAngA []m3.Vec
	pLinB, pAngB []m3.Vec
	invDen       []float64
	lambda       []float64
}

// grow resizes the workspace for n rows, reusing prior capacity.
func (ws *Workspace) grow(n int) {
	if cap(ws.lambda) < n {
		// Capacity growth to the largest island seen, then reused forever.
		ws.pLinA = make([]m3.Vec, n)   //paraxlint:allow(alloc)
		ws.pAngA = make([]m3.Vec, n)   //paraxlint:allow(alloc)
		ws.pLinB = make([]m3.Vec, n)   //paraxlint:allow(alloc)
		ws.pAngB = make([]m3.Vec, n)   //paraxlint:allow(alloc)
		ws.invDen = make([]float64, n) //paraxlint:allow(alloc)
		ws.lambda = make([]float64, n) //paraxlint:allow(alloc)
		return
	}
	ws.pLinA = ws.pLinA[:n]
	ws.pAngA = ws.pAngA[:n]
	ws.pLinB = ws.pLinB[:n]
	ws.pAngB = ws.pAngB[:n]
	ws.invDen = ws.invDen[:n]
	ws.lambda = ws.lambda[:n]
	for i := range ws.lambda {
		ws.pLinA[i] = m3.Zero
		ws.pAngA[i] = m3.Zero
		ws.pLinB[i] = m3.Zero
		ws.pAngB[i] = m3.Zero
		ws.invDen[i] = 0
		ws.lambda[i] = 0
	}
}

// Solve runs the PGS iteration for one island's rows, mutating body
// velocities in place. jointLoad, if non-nil, is indexed by joint id and
// accumulates the constraint force magnitude per joint (for breakable
// joints). ws, if non-nil, provides reusable per-row storage; the
// returned impulse slice aliases it and is valid until the workspace's
// next Solve. A nil ws allocates a temporary workspace.
func (s *Solver) Solve(bs []*body.Body, rows []joint.Row, dt float64,
	jointLoad []float64, st *Stats, ws *Workspace) []float64 {

	n := len(rows)
	if st != nil {
		st.Rows += n
		st.Iterations = s.Iterations
		st.RowUpdates += n * s.Iterations
	}
	if n == 0 {
		return nil
	}
	if ws == nil {
		ws = &Workspace{} //paraxlint:allow(alloc) convenience fallback; the engine always passes a workspace
	}
	ws.grow(n)
	pLinA, pAngA := ws.pLinA, ws.pAngA
	pLinB, pAngB := ws.pLinB, ws.pAngB
	invDen, lambda := ws.invDen, ws.lambda

	// Precompute per-row propagation vectors and effective masses.
	for i := range rows {
		r := &rows[i]
		den := r.CFM
		if r.BodyA >= 0 {
			a := bs[r.BodyA]
			pLinA[i] = r.JLinA.Scale(a.InvMass)
			pAngA[i] = a.InvInertiaWorld().MulVec(r.JAngA)
			den += r.JLinA.Dot(pLinA[i]) + r.JAngA.Dot(pAngA[i])
		}
		if r.BodyB >= 0 {
			b := bs[r.BodyB]
			pLinB[i] = r.JLinB.Scale(b.InvMass)
			pAngB[i] = b.InvInertiaWorld().MulVec(r.JAngB)
			den += r.JLinB.Dot(pLinB[i]) + r.JAngB.Dot(pAngB[i])
		}
		if den < m3.Eps {
			invDen[i] = 0
		} else {
			invDen[i] = 1 / den
		}
	}

	// Warm starting: re-apply the previous step's impulses so the
	// iteration starts near the converged solution (persistent contact
	// manifolds make stacks converge in far fewer sweeps).
	for i := range rows {
		r := &rows[i]
		if r.Warm == 0 {
			continue
		}
		lambda[i] = r.Warm
		if r.BodyA >= 0 {
			a := bs[r.BodyA]
			a.LinVel = a.LinVel.Add(pLinA[i].Scale(r.Warm))
			a.AngVel = a.AngVel.Add(pAngA[i].Scale(r.Warm))
		}
		if r.BodyB >= 0 {
			b := bs[r.BodyB]
			b.LinVel = b.LinVel.Add(pLinB[i].Scale(r.Warm))
			b.AngVel = b.AngVel.Add(pAngB[i].Scale(r.Warm))
		}
	}
	for it := 0; it < s.Iterations; it++ {
		for i := range rows {
			r := &rows[i]
			// Current constraint velocity.
			vel := 0.0
			if r.BodyA >= 0 {
				a := bs[r.BodyA]
				vel += r.JLinA.Dot(a.LinVel) + r.JAngA.Dot(a.AngVel)
			}
			if r.BodyB >= 0 {
				b := bs[r.BodyB]
				vel += r.JLinB.Dot(b.LinVel) + r.JAngB.Dot(b.AngVel)
			}
			dl := s.SOR * (r.RHS - vel - r.CFM*lambda[i]) * invDen[i]

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

			if r.BodyA >= 0 {
				a := bs[r.BodyA]
				a.LinVel = a.LinVel.Add(pLinA[i].Scale(dl))
				a.AngVel = a.AngVel.Add(pAngA[i].Scale(dl))
			}
			if r.BodyB >= 0 {
				b := bs[r.BodyB]
				b.LinVel = b.LinVel.Add(pLinB[i].Scale(dl))
				b.AngVel = b.AngVel.Add(pAngB[i].Scale(dl))
			}
		}
	}

	if jointLoad != nil {
		for i := range rows {
			r := &rows[i]
			if r.Joint >= 0 && int(r.Joint) < len(jointLoad) {
				jointLoad[r.Joint] += math.Abs(lambda[i]) / dt
			}
		}
	}

	// Convergence diagnostics: one more pass over the rows measuring the
	// residual the iteration left behind. A row clamped at a bound with
	// the error pushing further out of bounds is satisfied by
	// complementarity, not a solver failure, so its error is zeroed.
	if st != nil {
		for i := range rows {
			r := &rows[i]
			vel := 0.0
			if r.BodyA >= 0 {
				a := bs[r.BodyA]
				vel += r.JLinA.Dot(a.LinVel) + r.JAngA.Dot(a.AngVel)
			}
			if r.BodyB >= 0 {
				b := bs[r.BodyB]
				vel += r.JLinB.Dot(b.LinVel) + r.JAngB.Dot(b.AngVel)
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
			st.Residual += math.Abs(err)
			st.ImpulseNorm += math.Abs(lambda[i])
		}
	}
	return lambda
}
