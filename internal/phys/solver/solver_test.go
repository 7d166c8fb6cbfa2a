package solver

import (
	"math"
	"math/rand"
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/body"
	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/joint"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

func sphereBody(id int, mass float64, pos m3.Vec) *body.Body {
	b := body.New(mass, geom.Sphere{R: 0.5}.Inertia(mass))
	b.ID = id
	b.Pos = pos
	return b
}

var testParams = joint.Params{Dt: 0.01, ERP: 0.2, CFM: 1e-9}

func TestContactStopsApproach(t *testing.T) {
	// A ball falling onto the static ground: after solving, the approach
	// velocity along the normal must be non-negative (plus bias).
	b := sphereBody(0, 1, m3.V(0, 0.45, 0))
	b.LinVel = m3.V(0, -3, 0)
	bs := []*body.Body{b}
	n := m3.V(0, 1, 0) // normal pushes body B (the ball) up; A is world
	rows := joint.ContactRows(bs, -1, 0, m3.V(0, 0, 0), n, 0.05,
		joint.DefaultMaterial, testParams, 0, nil)
	s := New()
	var st Stats
	s.Solve(bs, rows, testParams.Dt, nil, &st, nil)
	if b.LinVel.Y < 0 {
		t.Errorf("ball still approaching ground after solve: vy = %v", b.LinVel.Y)
	}
	if st.Rows != 3 || st.RowUpdates != 60 {
		t.Errorf("stats = %+v", st)
	}
}

func TestContactRestitutionBounces(t *testing.T) {
	b := sphereBody(0, 1, m3.V(0, 0.45, 0))
	b.LinVel = m3.V(0, -10, 0) // fast: above restitution threshold
	bs := []*body.Body{b}
	mat := joint.ContactMaterial{Mu: 0, Restitution: 0.8, RestitutionThreshold: 0.5}
	rows := joint.ContactRows(bs, -1, 0, m3.Zero, m3.V(0, 1, 0), 0.01, mat, testParams, 0, nil)
	New().Solve(bs, rows, testParams.Dt, nil, nil, nil)
	if b.LinVel.Y < 7.5 || b.LinVel.Y > 8.5 {
		t.Errorf("bounce velocity = %v, want ~8", b.LinVel.Y)
	}
}

func TestFrictionBoundedByNormal(t *testing.T) {
	// A sliding box on the ground: friction impulse must not exceed
	// mu * normal impulse.
	b := sphereBody(0, 1, m3.V(0, 0.5, 0))
	b.LinVel = m3.V(5, -1, 0)
	bs := []*body.Body{b}
	mat := joint.ContactMaterial{Mu: 0.5}
	rows := joint.ContactRows(bs, -1, 0, m3.V(0, 0, 0), m3.V(0, 1, 0), 0.001, mat, testParams, 0, nil)
	lam := New().Solve(bs, rows, testParams.Dt, nil, nil, nil)
	fr := math.Hypot(lam[1], lam[2])
	if fr > mat.Mu*lam[0]*math.Sqrt2+1e-9 {
		t.Errorf("friction %v exceeds mu*normal %v", fr, mat.Mu*lam[0])
	}
	// Sliding should be slowed, not reversed.
	if b.LinVel.X < 0 || b.LinVel.X > 5 {
		t.Errorf("tangential velocity = %v", b.LinVel.X)
	}
}

func TestBallJointHoldsBodies(t *testing.T) {
	// Two spheres connected at their midpoint; pulling them apart should
	// be resisted: after the solve, relative velocity at the anchor ~ 0.
	a := sphereBody(0, 1, m3.V(-0.5, 0, 0))
	b := sphereBody(1, 1, m3.V(0.5, 0, 0))
	bs := []*body.Body{a, b}
	j := joint.NewBall(bs, 0, 1, m3.V(0, 0, 0))
	a.LinVel = m3.V(-1, 0, 0)
	b.LinVel = m3.V(1, 0, 0)
	rows := j.Rows(bs, testParams, 0, nil)
	if len(rows) != 3 {
		t.Fatalf("ball joint rows = %d, want 3", len(rows))
	}
	New().Solve(bs, rows, testParams.Dt, nil, nil, nil)
	va := a.VelocityAt(m3.Zero)
	vb := b.VelocityAt(m3.Zero)
	if va.Sub(vb).Len() > 1e-6 {
		t.Errorf("anchor velocities differ after solve: %v vs %v", va, vb)
	}
}

func TestBallJointConservesMomentum(t *testing.T) {
	a := sphereBody(0, 2, m3.V(-0.5, 0, 0))
	b := sphereBody(1, 3, m3.V(0.5, 0, 0))
	bs := []*body.Body{a, b}
	a.LinVel = m3.V(4, 1, 0)
	b.LinVel = m3.V(-2, 0, 1)
	p0 := a.Momentum().Add(b.Momentum())
	j := joint.NewBall(bs, 0, 1, m3.Zero)
	rows := j.Rows(bs, testParams, 0, nil)
	New().Solve(bs, rows, testParams.Dt, nil, nil, nil)
	p1 := a.Momentum().Add(b.Momentum())
	if p1.Sub(p0).Len() > 1e-9 {
		t.Errorf("internal constraint changed momentum: %v -> %v", p0, p1)
	}
}

func TestHingeRemovesOffAxisRotation(t *testing.T) {
	a := sphereBody(0, 1, m3.V(0, 0, 0))
	b := sphereBody(1, 1, m3.V(1, 0, 0))
	bs := []*body.Body{a, b}
	axis := m3.V(0, 0, 1)
	j := joint.NewHinge(bs, 0, 1, m3.V(0.5, 0, 0), axis)
	if j.NumRows() != 5 {
		t.Fatalf("hinge rows = %d", j.NumRows())
	}
	// Give B angular velocity off-axis; hinge should cancel the off-axis
	// relative part.
	b.AngVel = m3.V(3, 2, 1)
	rows := j.Rows(bs, testParams, 0, nil)
	New().Solve(bs, rows, testParams.Dt, nil, nil, nil)
	rel := b.AngVel.Sub(a.AngVel)
	off := rel.Sub(axis.Scale(rel.Dot(axis)))
	if off.Len() > 1e-4 {
		t.Errorf("off-axis relative spin remains: %v", off)
	}
}

func TestFixedWeldStopsRelativeMotion(t *testing.T) {
	a := sphereBody(0, 1, m3.V(0, 0, 0))
	b := sphereBody(1, 1, m3.V(1, 0, 0))
	bs := []*body.Body{a, b}
	j := joint.NewFixed(bs, 0, 1, m3.V(0.5, 0, 0))
	b.LinVel = m3.V(0, 2, 0)
	b.AngVel = m3.V(1, 1, 1)
	rows := j.Rows(bs, testParams, 0, nil)
	if len(rows) != 6 {
		t.Fatalf("fixed joint rows = %d, want 6", len(rows))
	}
	New().Solve(bs, rows, testParams.Dt, nil, nil, nil)
	if rel := b.AngVel.Sub(a.AngVel); rel.Len() > 1e-4 {
		t.Errorf("relative spin remains: %v", rel)
	}
	va := a.VelocityAt(m3.V(0.5, 0, 0))
	vb := b.VelocityAt(m3.V(0.5, 0, 0))
	if va.Sub(vb).Len() > 1e-4 {
		t.Errorf("anchor velocity mismatch: %v vs %v", va, vb)
	}
}

func TestSliderAllowsAxialMotion(t *testing.T) {
	a := sphereBody(0, 1, m3.V(0, 0, 0))
	b := sphereBody(1, 1, m3.V(1, 0, 0))
	bs := []*body.Body{a, b}
	axis := m3.V(1, 0, 0)
	j := joint.NewSlider(bs, 0, 1, m3.V(0.5, 0, 0), axis)
	b.LinVel = m3.V(2, 3, 0) // axial + lateral
	rows := j.Rows(bs, testParams, 0, nil)
	New().Solve(bs, rows, testParams.Dt, nil, nil, nil)
	// A slider locks relative rotation and lateral anchor motion; the
	// assembly may still rotate jointly, so compare anchor velocities,
	// not center velocities.
	if relW := b.AngVel.Sub(a.AngVel); relW.Len() > 1e-4 {
		t.Errorf("relative spin remains: %v", relW)
	}
	anchor := m3.V(0.5, 0, 0)
	rel := b.VelocityAt(anchor).Sub(a.VelocityAt(anchor))
	if math.Abs(rel.Y) > 1e-4 || math.Abs(rel.Z) > 1e-4 {
		t.Errorf("lateral anchor motion remains: %v", rel)
	}
	if rel.X < 0.5 {
		t.Errorf("axial motion should be preserved: %v", rel)
	}
}

func TestBreakableJoint(t *testing.T) {
	a := sphereBody(0, 1, m3.V(0, 0, 0))
	b := sphereBody(1, 1, m3.V(1, 0, 0))
	bs := []*body.Body{a, b}
	inner := joint.NewBall(bs, 0, 1, m3.V(0.5, 0, 0))
	br := joint.NewBreakable(inner, 10, 0)
	if br.NumRows() != 3 {
		t.Fatalf("breakable rows = %d", br.NumRows())
	}
	if br.ApplyLoad(5) || br.Broken {
		t.Error("joint broke below threshold")
	}
	if !br.ApplyLoad(15) || !br.Broken {
		t.Error("joint did not break above threshold")
	}
	if rows := br.Rows(bs, testParams, 0, nil); len(rows) != 0 {
		t.Error("broken joint still produces rows")
	}
	if br.NumRows() != 0 {
		t.Error("broken joint reports rows")
	}
}

func TestBreakableFatigue(t *testing.T) {
	a := sphereBody(0, 1, m3.Zero)
	bs := []*body.Body{a}
	_ = bs
	br := joint.NewBreakable(joint.NewBall(bs, 0, -1, m3.Zero), 0, 100)
	for i := 0; i < 9; i++ {
		if br.ApplyLoad(11) && br.Fatigue <= 100 {
			t.Fatalf("broke early at accumulated load %v", br.Fatigue)
		}
	}
	// 9 * 11 = 99 <= 100: still intact; the 10th application breaks it.
	if br.Broken {
		t.Fatal("joint broke before exceeding fatigue limit")
	}
	if !br.ApplyLoad(11) || !br.Broken {
		t.Error("fatigue accumulation did not break joint")
	}
}

func TestJointLoadFeedback(t *testing.T) {
	a := sphereBody(0, 1, m3.V(-0.5, 0, 0))
	b := sphereBody(1, 1, m3.V(0.5, 0, 0))
	bs := []*body.Body{a, b}
	j := joint.NewBall(bs, 0, 1, m3.Zero)
	a.LinVel = m3.V(-10, 0, 0)
	b.LinVel = m3.V(10, 0, 0)
	rows := j.Rows(bs, testParams, 4, nil)
	load := make([]float64, 5)
	New().Solve(bs, rows, testParams.Dt, load, nil, nil)
	if load[4] <= 0 {
		t.Errorf("joint load not recorded: %v", load)
	}
}

// A reused Workspace must give the same answer as a fresh solve, hand
// back impulses that outlive the call, and, once grown, make repeated
// solves allocation-free.
func TestWorkspaceReuse(t *testing.T) {
	mkRows := func(bs []*body.Body) []joint.Row {
		return joint.ContactRows(bs, -1, 0, m3.Zero, m3.V(0, 1, 0), 0.01,
			joint.DefaultMaterial, testParams, 0, nil)
	}
	fresh := sphereBody(0, 1, m3.V(0, 0.45, 0))
	fresh.LinVel = m3.V(0, -3, 0)
	want := New().Solve([]*body.Body{fresh}, mkRows([]*body.Body{fresh}),
		testParams.Dt, nil, nil, nil)

	ws := &Workspace{}
	// Dirty the workspace with a larger unrelated solve first.
	dirty := sphereBody(0, 2, m3.V(0, 0.4, 0))
	dirty.LinVel = m3.V(1, -5, 2)
	dbs := []*body.Body{dirty}
	drows := append(mkRows(dbs), mkRows(dbs)...)
	New().Solve(dbs, drows, testParams.Dt, nil, nil, ws)

	b := sphereBody(0, 1, m3.V(0, 0.45, 0))
	b.LinVel = m3.V(0, -3, 0)
	bs := []*body.Body{b}
	got := New().Solve(bs, mkRows(bs), testParams.Dt, nil, nil, ws)
	// The returned impulses alias ws, one per row, and stay valid until
	// ws's next Solve (World.solveIsland copies them into its warm-start
	// buffer after Solve returns): a solve through another workspace in
	// between must not disturb them.
	if len(got) != len(want) {
		t.Fatalf("reused workspace returned %d impulses for %d rows", len(got), len(want))
	}
	New().Solve(dbs, drows, testParams.Dt, nil, nil, &Workspace{})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lambda[%d]: reused workspace %v, fresh %v", i, got[i], want[i])
		}
	}

	s := New()
	rows := mkRows(bs)
	allocs := testing.AllocsPerRun(50, func() {
		s.Solve(bs, rows, testParams.Dt, nil, nil, ws)
	})
	if allocs > 0 {
		t.Errorf("Solve with grown workspace allocates %v/op, want 0", allocs)
	}
}

func TestSolverEmptyRows(t *testing.T) {
	if lam := New().Solve(nil, nil, 0.01, nil, nil, nil); lam != nil {
		t.Error("empty solve should return nil")
	}
}

// Property test: the solver never produces non-finite state, whatever
// random constraint soup it is given.
func TestSolverRobustToRandomRows(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(6)
		var bs []*body.Body
		for i := 0; i < n; i++ {
			b := sphereBody(i, 0.5+r.Float64()*5, m3.V(r.Float64()*4, r.Float64()*4, r.Float64()*4))
			b.LinVel = m3.V(r.Float64()*10-5, r.Float64()*10-5, r.Float64()*10-5)
			bs = append(bs, b)
		}
		var rows []joint.Row
		for k := 0; k < 3+r.Intn(10); k++ {
			a := int32(r.Intn(n))
			bidx := int32(r.Intn(n))
			d := m3.V(r.Float64()*2-1, r.Float64()*2-1, r.Float64()*2-1).Norm()
			if d == m3.Zero {
				d = m3.V(1, 0, 0)
			}
			rows = append(rows, joint.Row{
				BodyA: a, BodyB: bidx,
				JLinA: d.Neg(), JLinB: d,
				JAngA: m3.V(r.Float64(), r.Float64(), r.Float64()),
				JAngB: m3.V(r.Float64(), r.Float64(), r.Float64()),
				RHS:   r.Float64()*4 - 2,
				CFM:   1e-9,
				Lo:    math.Inf(-1), Hi: math.Inf(1),
				FrictionOf: -1, Joint: -1,
			})
		}
		lam := New().Solve(bs, rows, 0.01, nil, nil, nil)
		for i, l := range lam {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				t.Fatalf("trial %d: lambda[%d] = %v", trial, i, l)
			}
		}
		for i, b := range bs {
			if !b.Valid() {
				t.Fatalf("trial %d: body %d invalid after solve", trial, i)
			}
		}
	}
}

// Warm starting must preserve the solution of an already-converged
// system: re-solving with the previous impulses yields (nearly) no
// further velocity change.
func TestWarmStartIdempotent(t *testing.T) {
	b := sphereBody(0, 1, m3.V(0, 0.45, 0))
	b.LinVel = m3.V(0, -3, 0)
	bs := []*body.Body{b}
	rows := joint.ContactRows(bs, -1, 0, m3.Zero, m3.V(0, 1, 0), 0.01,
		joint.DefaultMaterial, testParams, 0, nil)
	lam := New().Solve(bs, rows, testParams.Dt, nil, nil, nil)

	// Second solve on a fresh body with the same approach velocity, warm
	// started with the converged impulses: one sweep suffices.
	b2 := sphereBody(0, 1, m3.V(0, 0.45, 0))
	b2.LinVel = m3.V(0, -3, 0)
	bs2 := []*body.Body{b2}
	rows2 := joint.ContactRows(bs2, -1, 0, m3.Zero, m3.V(0, 1, 0), 0.01,
		joint.DefaultMaterial, testParams, 0, nil)
	for i := range rows2 {
		rows2[i].Warm = lam[i]
	}
	one := &Solver{Iterations: 1}
	one.Solve(bs2, rows2, testParams.Dt, nil, nil, nil)
	if math.Abs(b2.LinVel.Y-b.LinVel.Y) > 0.05 {
		t.Errorf("warm-started single sweep %v differs from converged %v",
			b2.LinVel.Y, b.LinVel.Y)
	}
}

// referenceSolve is the solver's previous inner loop, kept verbatim as
// the oracle for the slot-based one: it reaches every body through
// bs[r.BodyA] on every row of every sweep and rebuilds the world inverse
// inertia per row endpoint. Same arithmetic in the same order, so Solve
// must agree with it bit for bit.
func referenceSolve(s *Solver, bs []*body.Body, rows []joint.Row, dt float64,
	jointLoad []float64, st *Stats) []float64 {

	n := len(rows)
	if st != nil {
		st.Rows += n
		st.Iterations = s.Iterations
		st.RowUpdates += n * s.Iterations
	}
	if n == 0 {
		return nil
	}
	pLinA, pAngA := make([]m3.Vec, n), make([]m3.Vec, n)
	pLinB, pAngB := make([]m3.Vec, n), make([]m3.Vec, n)
	invDen, lambda := make([]float64, n), make([]float64, n)

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
			dl := (r.RHS - vel - r.CFM*lambda[i]) * invDen[i]

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

func randVec(r *rand.Rand, scale float64) m3.Vec {
	return m3.V(r.Float64()*2-1, r.Float64()*2-1, r.Float64()*2-1).Scale(scale)
}

// randomBodies draws n tumbling boxes (anisotropic inertia, so the world
// inverse inertia depends on the rotation), one in six immovable.
func randomBodies(r *rand.Rand, n int) []*body.Body {
	bs := make([]*body.Body, n)
	for i := range bs {
		mass := 0.5 + r.Float64()*5
		if r.Intn(6) == 0 {
			mass = 0
		}
		half := m3.V(0.1+r.Float64(), 0.1+r.Float64(), 0.1+r.Float64())
		b := body.New(mass, geom.Box{Half: half}.Inertia(mass))
		b.ID = i
		b.Pos = randVec(r, 4)
		b.Rot = m3.QFromAxisAngle(randVec(r, 1).Norm(), r.Float64()*6)
		b.LinVel, b.AngVel = randVec(r, 5), randVec(r, 3)
		bs[i] = b
	}
	return bs
}

// randomRows draws an n-row island over a random subset of bs, covering
// every endpoint shape the solver branches on: a static endpoint on
// either side (or both), one body on many rows, BodyA == BodyB, friction
// rows bounded by an earlier row, one-sided bounds, den < Eps rows, warm
// impulses, and joint ids below, inside and beyond a jointLoad of length
// joints.
func randomRows(r *rand.Rand, bs []*body.Body, n, joints int) []joint.Row {
	touched := r.Perm(len(bs))[:1+r.Intn(len(bs))]
	pick := func() int32 {
		if r.Intn(5) == 0 {
			return -1
		}
		return int32(touched[r.Intn(len(touched))])
	}
	rows := make([]joint.Row, n)
	for i := range rows {
		row := joint.Row{
			BodyA: pick(), BodyB: pick(),
			JLinA: randVec(r, 1), JAngA: randVec(r, 1),
			JLinB: randVec(r, 1), JAngB: randVec(r, 1),
			RHS: r.Float64()*4 - 2, CFM: 1e-9 * float64(r.Intn(3)),
			Lo: math.Inf(-1), Hi: math.Inf(1),
			FrictionOf: -1, Joint: int32(r.Intn(joints+2)) - 1,
		}
		switch r.Intn(6) {
		case 0:
			row.BodyB = row.BodyA
		case 1:
			if i > 0 {
				row.FrictionOf, row.Mu = int32(r.Intn(i)), r.Float64()
			}
		case 2:
			row.Lo = 0
		case 3: // no effective mass: den = 0 < Eps
			row.JLinA, row.JAngA, row.JLinB, row.JAngB = m3.Zero, m3.Zero, m3.Zero, m3.Zero
			row.CFM = 0
		}
		if r.Intn(3) == 0 {
			row.Warm = r.Float64()*2 - 1
		}
		rows[i] = row
	}
	return rows
}

func cloneBodies(bs []*body.Body) []*body.Body {
	out := make([]*body.Body, len(bs))
	for i, b := range bs {
		c := *b
		out[i] = &c
	}
	return out
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func vecBitsEqual(a, b m3.Vec) bool {
	return bitsEqual(a.X, b.X) && bitsEqual(a.Y, b.Y) && bitsEqual(a.Z, b.Z)
}

// solveBothWays runs referenceSolve and Solve (through ws) on private
// copies of bs and requires every output to be bit-equal. It leaves bs
// itself untouched so the same island can be solved again.
func solveBothWays(t *testing.T, what string, s *Solver, bs []*body.Body,
	rows []joint.Row, joints int, ws *Workspace) {

	t.Helper()
	refBs, gotBs := cloneBodies(bs), cloneBodies(bs)
	var refLoad, gotLoad []float64
	if joints > 0 {
		refLoad, gotLoad = make([]float64, joints), make([]float64, joints)
	}
	var refSt, gotSt Stats
	want := referenceSolve(s, refBs, rows, 0.01, refLoad, &refSt)
	got := s.Solve(gotBs, rows, 0.01, gotLoad, &gotSt, ws)

	if len(got) != len(want) {
		t.Fatalf("%s: %d impulses, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if !bitsEqual(got[i], want[i]) {
			t.Fatalf("%s: lambda[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
	for i := range refBs {
		if !vecBitsEqual(gotBs[i].LinVel, refBs[i].LinVel) || !vecBitsEqual(gotBs[i].AngVel, refBs[i].AngVel) {
			t.Fatalf("%s: body %d velocity = %v %v, reference %v %v", what, i,
				gotBs[i].LinVel, gotBs[i].AngVel, refBs[i].LinVel, refBs[i].AngVel)
		}
	}
	for j := range refLoad {
		if !bitsEqual(gotLoad[j], refLoad[j]) {
			t.Fatalf("%s: jointLoad[%d] = %v, reference %v", what, j, gotLoad[j], refLoad[j])
		}
	}
	if gotSt.Rows != refSt.Rows || gotSt.Iterations != refSt.Iterations || gotSt.RowUpdates != refSt.RowUpdates ||
		!bitsEqual(gotSt.Residual, refSt.Residual) || !bitsEqual(gotSt.ImpulseNorm, refSt.ImpulseNorm) {
		t.Fatalf("%s: stats = %+v, reference %+v", what, gotSt, refSt)
	}
	if ws != nil {
		for bi, sl := range ws.slotOf {
			if sl != 0 {
				t.Fatalf("%s: body %d still holds slot %d after the scatter", what, bi, sl-1)
			}
		}
	}
}

// Property test: the gather/sweep/scatter solve agrees bit for bit with
// the pointer-chasing reference on random islands. One Workspace serves
// the whole test, and every case is solved, then followed by a
// different-sized island over an overlapping subset of the same bodies,
// then solved again, then solved over a grown body list whose new tail
// the rows also touch — so a slot that outlives its Solve, or a slot map
// that does not follow the body list, fails here deterministically.
func TestSolveMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	ws := &Workspace{}
	for trial := 0; trial < 200; trial++ {
		s := &Solver{Iterations: 1 + r.Intn(20)}
		joints := r.Intn(2) * (1 + r.Intn(4)) // 0: nil jointLoad
		bs := randomBodies(r, 2+r.Intn(20))
		rows := randomRows(r, bs, 1+r.Intn(60), joints)
		between := randomRows(r, bs, 1+r.Intn(60), joints)
		grown := append(cloneBodies(bs), randomBodies(r, 1+r.Intn(8))...)
		grownRows := append(append([]joint.Row(nil), rows...), randomRows(r, grown, 1+r.Intn(10), joints)...)

		solveBothWays(t, "first solve", s, bs, rows, joints, ws)
		solveBothWays(t, "island in between", s, bs, between, joints, ws)
		solveBothWays(t, "second solve", s, bs, rows, joints, ws)
		solveBothWays(t, "grown body list", s, grown, grownRows, joints, ws)
		solveBothWays(t, "nil workspace", s, bs, rows, joints, nil)
	}
}
