// Package body implements rigid-body state and integration: mass and
// inertia bookkeeping, force/torque accumulation, and the semi-implicit
// Euler forward step used by the engine's island-processing phase.
package body

import (
	"math"

	"github.com/parallax-arch/parallax/internal/phys/m3"
)

// Body is a rigid body. Bodies are identified by index within the world;
// static geometry has no body.
type Body struct {
	// ID is the body's index in the world body list.
	ID int

	// Pos is the world position of the center of mass.
	Pos m3.Vec
	// Rot is the orientation quaternion (kept unit-length).
	Rot m3.Quat
	// LinVel and AngVel are the world-frame velocities.
	LinVel m3.Vec
	AngVel m3.Vec

	// Mass and InvMass. InvMass zero makes a body kinematic/immovable.
	Mass    float64
	InvMass float64
	// Inertia and InvInertia are in the body frame.
	Inertia    m3.Mat
	InvInertia m3.Mat

	// Force and Torque accumulate over a step and are cleared afterward.
	Force  m3.Vec
	Torque m3.Vec

	// Enabled bodies take part in simulation; disabled bodies (debris
	// not yet activated, consumed explosives) are skipped everywhere.
	Enabled bool

	// idleTime accumulates seconds below the sleep thresholds.
	idleTime float64
	// Asleep bodies skip integration until disturbed.
	Asleep bool
}

// New returns an enabled body at the origin with the given mass
// properties. inertia is the body-frame inertia tensor.
func New(mass float64, inertia m3.Mat) *Body {
	b := &Body{
		Rot:     m3.QIdent,
		Enabled: true,
	}
	b.SetMass(mass, inertia)
	return b
}

// SetMass sets the mass and body-frame inertia tensor. A non-positive
// mass makes the body immovable.
func (b *Body) SetMass(mass float64, inertia m3.Mat) {
	b.Mass = mass
	b.Inertia = inertia
	if mass <= 0 {
		b.InvMass = 0
		b.InvInertia = m3.Mat{}
		return
	}
	b.InvMass = 1 / mass
	b.InvInertia = inertia.Inverse()
}

// InvInertiaWorld returns the inverse inertia tensor rotated into the
// world frame: R * Iinv * R^T.
func (b *Body) InvInertiaWorld() m3.Mat {
	r := b.Rot.Mat()
	return r.Mul(b.InvInertia).Mul(r.Transpose())
}

// AddForce accumulates a world-frame force through the center of mass.
func (b *Body) AddForce(f m3.Vec) { b.Force = b.Force.Add(f) }

// AddTorque accumulates a world-frame torque.
//
//paraxlint:noalloc
func (b *Body) AddTorque(t m3.Vec) { b.Torque = b.Torque.Add(t) }

// AddForceAt accumulates a world-frame force applied at world point p.
//
//paraxlint:noalloc
func (b *Body) AddForceAt(f, p m3.Vec) {
	b.Force = b.Force.Add(f)
	b.Torque = b.Torque.Add(p.Sub(b.Pos).Cross(f))
}

// ApplyImpulse changes velocity instantaneously by a world impulse j
// applied at world point p.
func (b *Body) ApplyImpulse(j, p m3.Vec) {
	b.LinVel = b.LinVel.Add(j.Scale(b.InvMass))
	b.AngVel = b.AngVel.Add(b.InvInertiaWorld().MulVec(p.Sub(b.Pos).Cross(j)))
}

// VelocityAt returns the world velocity of the material point of b at
// world position p.
func (b *Body) VelocityAt(p m3.Vec) m3.Vec {
	return b.LinVel.Add(b.AngVel.Cross(p.Sub(b.Pos)))
}

// IntegrateVelocity applies the accumulated forces over dt using
// semi-implicit Euler, then clears the accumulators.
func (b *Body) IntegrateVelocity(dt float64) {
	if b.InvMass == 0 || !b.Enabled {
		b.ClearAccumulators()
		return
	}
	b.LinVel = b.LinVel.Add(b.Force.Scale(b.InvMass * dt))
	b.AngVel = b.AngVel.Add(b.InvInertiaWorld().MulVec(b.Torque).Scale(dt))
	b.ClearAccumulators()
}

// IntegratePosition advances position and orientation over dt from the
// current velocities.
func (b *Body) IntegratePosition(dt float64) {
	if b.InvMass == 0 || !b.Enabled {
		return
	}
	b.Pos = b.Pos.Add(b.LinVel.Scale(dt))
	b.Rot = b.Rot.Integrate(b.AngVel, dt)
}

// ClearAccumulators zeroes the force and torque accumulators.
func (b *Body) ClearAccumulators() {
	b.Force = m3.Zero
	b.Torque = m3.Zero
}

// Sleep thresholds: a body idle below these speeds for SleepDelay
// seconds is put to sleep.
const (
	SleepLinVel = 0.04
	SleepAngVel = 0.06
	SleepDelay  = 0.5
)

// UpdateSleep advances the body's sleep state by dt and returns whether
// the body is now asleep. Immovable bodies never sleep (they are never
// integrated anyway).
func (b *Body) UpdateSleep(dt float64) bool {
	if b.InvMass == 0 || !b.Enabled {
		return false
	}
	if b.LinVel.Len2() < SleepLinVel*SleepLinVel && b.AngVel.Len2() < SleepAngVel*SleepAngVel {
		b.idleTime += dt
		if b.idleTime >= SleepDelay {
			b.Asleep = true
			b.LinVel = m3.Zero
			b.AngVel = m3.Zero
		}
	} else {
		b.idleTime = 0
		b.Asleep = false
	}
	return b.Asleep
}

// Wake clears the sleep state.
func (b *Body) Wake() {
	b.Asleep = false
	b.idleTime = 0
}

// SleepClock returns the accumulated idle time driving the sleep
// decision — part of the body's dynamic state, exposed so snapshots can
// capture it.
func (b *Body) SleepClock() float64 { return b.idleTime }

// SetSleepClock restores the idle-time accumulator (snapshot restore).
func (b *Body) SetSleepClock(t float64) { b.idleTime = t }

// KineticEnergy returns the body's kinetic energy.
func (b *Body) KineticEnergy() float64 {
	if b.InvMass == 0 {
		return 0
	}
	lin := 0.5 * b.Mass * b.LinVel.Len2()
	// w . (R I R^T w)
	r := b.Rot.Mat()
	iw := r.Mul(b.Inertia).Mul(r.Transpose()).MulVec(b.AngVel)
	ang := 0.5 * b.AngVel.Dot(iw)
	return lin + ang
}

// Momentum returns the linear momentum m*v.
func (b *Body) Momentum() m3.Vec {
	if b.InvMass == 0 {
		return m3.Zero
	}
	return b.LinVel.Scale(b.Mass)
}

// Valid reports whether the body state is finite. Used by stability
// tests and the engine's invariant checks.
func (b *Body) Valid() bool {
	return b.Pos.IsFinite() && b.LinVel.IsFinite() && b.AngVel.IsFinite() &&
		b.Rot.IsFinite() && !math.IsNaN(b.Mass)
}
