package world

import (
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/joint"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

// linearMomentum sums m·v over the world's movable bodies.
func linearMomentum(w *World) m3.Vec {
	p := m3.Zero
	for _, b := range w.Bodies {
		if b.Enabled && b.InvMass > 0 {
			p = p.Add(b.LinVel.Scale(b.Mass))
		}
	}
	return p
}

// TestFreeFlightConservesMomentum: with no gravity and nothing static,
// every impulse a step applies — a joint row, a contact between two
// moving bodies — acts on two bodies equally and oppositely, so the total
// linear momentum cannot change beyond rounding.
func TestFreeFlightConservesMomentum(t *testing.T) {
	for _, threads := range []int{1, 2} {
		w := New()
		w.Gravity = m3.Zero
		w.SetThreads(threads)
		// A drifting, tumbling chain of boxes, ball and hinge joints
		// alternating.
		for i := 0; i < 6; i++ {
			x := 0.6 * float64(i)
			b, _ := w.AddBody(geom.Box{Half: m3.V(0.2, 0.2, 0.2)}, 1+0.5*float64(i), m3.V(x, 0, 0), m3.QIdent, 0, 0)
			w.Bodies[b].LinVel = m3.V(0.5, 0.2*float64(i)-0.4, 0.1)
			w.Bodies[b].AngVel = m3.V(0, 0.1, 0.3*float64(i))
			if i == 0 {
				continue
			}
			anchor := m3.V(x-0.3, 0, 0)
			if i%2 == 0 {
				w.AddJoint(joint.NewBall(w.Bodies, b-1, b, anchor))
			} else {
				w.AddJoint(joint.NewHinge(w.Bodies, b-1, b, anchor, m3.V(0, 0, 1)))
			}
		}
		// Two spheres meeting head-on, and a third thrown into the chain.
		for _, s := range []struct {
			mass     float64
			pos, vel m3.Vec
		}{
			{2, m3.V(0, 3, 0), m3.V(2, 0, 0)},
			{1, m3.V(3, 3, 0), m3.V(-2, 0, 0)},
			{1.5, m3.V(1.2, -3, 0), m3.V(0.5, 3, 0.1)},
		} {
			b, _ := w.AddBody(geom.Sphere{R: 0.5}, s.mass, s.pos, m3.QIdent, 0, 0)
			w.Bodies[b].LinVel = s.vel
		}

		p0 := linearMomentum(w)
		contacts, rows := 0, 0
		for step := 0; step < 300; step++ {
			w.Step()
			contacts += w.Profile.Contacts
			rows += w.Profile.Solver.Rows
			if d := linearMomentum(w).Sub(p0).Len(); d > 1e-9*p0.Len() {
				t.Fatalf("threads=%d step %d: momentum %v drifted by %g from %v", threads, step, linearMomentum(w), d, p0)
			}
		}
		if contacts == 0 || rows == 0 {
			t.Fatalf("threads=%d: %d contacts and %d solver rows over 300 steps; the test checks too little", threads, contacts, rows)
		}
		w.SetThreads(1) // stops the worker pool
	}
}
