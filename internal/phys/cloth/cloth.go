// Package cloth implements soft-body simulation largely following
// Jakobsen's position-based approach (paper section 3.2): particles
// integrated with a Verlet scheme, edge-length constraints solved by
// iterative relaxation, and collision resolution by vertex projection
// with ray casting against rigid geoms for fast-moving vertices.
package cloth

import (
	"math"

	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/m3"
	"github.com/parallax-arch/parallax/internal/phys/narrowphase"
)

// Particle is one cloth vertex.
type Particle struct {
	Pos, Prev m3.Vec
	// InvMass zero pins the particle in space (or to a body via Pin).
	InvMass float64
}

// Constraint keeps two particles at their rest distance.
type Constraint struct {
	I, J int32
	Rest float64
}

// Pin attaches particle P rigidly to a body at a local offset; the
// engine updates pinned particles from the body pose each step
// (uniforms attached to virtual humans use this).
type Pin struct {
	P     int32
	Body  int32
	Local m3.Vec
}

// Cloth is one soft-body object: a triangular mesh of particles where
// each edge is a length constraint.
type Cloth struct {
	Particles   []Particle
	Constraints []Constraint
	Tris        []geom.Tri
	Pins        []Pin
	// Iterations is the relaxation count per forward step.
	Iterations int
	// Damping removes a fraction of the Verlet velocity each step.
	Damping float64
	// Thickness is the collision offset kept between cloth vertices and
	// rigid surfaces.
	Thickness float64
	// Friction in [0, 1] is the fraction of tangential velocity removed
	// from a vertex when it is projected out of a rigid surface.
	Friction float64
	// Box is the cloth's bounding volume, refreshed each step; the
	// engine uses it as the cloth's broad-phase proxy.
	Box m3.AABB
	// stats for the architecture model.
	LastStats Stats

	// scr and triBuf are per-cloth collision scratch buffers (a cloth is
	// stepped by one worker at a time, so they are not contended). They
	// are runtime-only state: excluded from snapshots.
	scr    narrowphase.Scratch
	triBuf []int32

	// sched is Constraints in the order Relax sweeps them (see schedule):
	// derived, runtime-only, rebuilt when the constraint count changes.
	// Once a cloth has relaxed, Constraints may grow but must not be
	// edited in place.
	sched []Constraint
}

// Stats counts per-step cloth work.
type Stats struct {
	VertexUpdates     int
	ConstraintUpdates int
	CollisionTests    int
	RayCasts          int
}

// NewGrid builds an nx-by-nz cloth grid in the XZ plane with the given
// spacing, starting at origin, with structural and shear constraints and
// total mass spread evenly over the particles.
func NewGrid(nx, nz int, spacing float64, origin m3.Vec, mass float64) *Cloth {
	c := &Cloth{
		Iterations: 20,
		Damping:    0.01,
		Thickness:  0.02,
		Friction:   0.6,
	}
	invM := float64(nx*nz) / math.Max(mass, 1e-9)
	idx := func(x, z int) int32 { return int32(z*nx + x) }
	for z := 0; z < nz; z++ {
		for x := 0; x < nx; x++ {
			p := origin.Add(m3.V(float64(x)*spacing, 0, float64(z)*spacing))
			c.Particles = append(c.Particles, Particle{Pos: p, Prev: p, InvMass: invM})
		}
	}
	addCon := func(i, j int32) {
		rest := c.Particles[i].Pos.Dist(c.Particles[j].Pos)
		c.Constraints = append(c.Constraints, Constraint{I: i, J: j, Rest: rest})
	}
	for z := 0; z < nz; z++ {
		for x := 0; x < nx; x++ {
			if x+1 < nx {
				addCon(idx(x, z), idx(x+1, z))
			}
			if z+1 < nz {
				addCon(idx(x, z), idx(x, z+1))
			}
			if x+1 < nx && z+1 < nz {
				addCon(idx(x, z), idx(x+1, z+1)) // shear
				addCon(idx(x+1, z), idx(x, z+1)) // shear
				c.Tris = append(c.Tris,
					geom.Tri{idx(x, z), idx(x+1, z), idx(x+1, z+1)},
					geom.Tri{idx(x, z), idx(x+1, z+1), idx(x, z+1)})
			}
		}
	}
	c.UpdateBox()
	return c
}

// PinParticle fixes particle p in space at its current position.
func (c *Cloth) PinParticle(p int32) { c.Particles[p].InvMass = 0 }

// PinToBody attaches particle p to the given body index at local offset.
func (c *Cloth) PinToBody(p, bodyIdx int32, local m3.Vec) {
	c.Particles[p].InvMass = 0
	c.Pins = append(c.Pins, Pin{P: p, Body: bodyIdx, Local: local})
}

// UpdateBox refreshes the cloth bounding volume, expanded by thickness.
func (c *Cloth) UpdateBox() {
	box := m3.EmptyAABB()
	for i := range c.Particles {
		p := c.Particles[i].Pos
		box = box.Union(m3.AABB{Min: p, Max: p})
	}
	c.Box = box.Expand(c.Thickness + 0.05)
}

// Integrate performs the Verlet step for all particles under the given
// acceleration (typically gravity). Each vertex is independent — this is
// the cloth phase's fine-grain parallelism.
func (c *Cloth) Integrate(dt float64, accel m3.Vec) {
	st := &c.LastStats
	*st = Stats{}
	k := 1 - c.Damping
	for i := range c.Particles {
		p := &c.Particles[i]
		if p.InvMass == 0 {
			continue
		}
		vel := p.Pos.Sub(p.Prev).Scale(k)
		next := p.Pos.Add(vel).Add(accel.Scale(dt * dt))
		p.Prev = p.Pos
		p.Pos = next
		st.VertexUpdates++
	}
}

// ApplyBlast kicks every free particle inside the blast sphere at
// center with the given radius: a radial velocity change of magnitude
// impulse*InvMass, scaled down linearly with distance from the center
// (matching the engine's rigid-body shockwave). Verlet state stores
// velocity implicitly as Pos-Prev, so the kick is applied by moving
// Prev backwards along the kick direction. It returns the number of
// particles hit.
func (c *Cloth) ApplyBlast(center m3.Vec, radius, impulse, dt float64) int {
	hit := 0
	for i := range c.Particles {
		p := &c.Particles[i]
		if p.InvMass == 0 {
			continue
		}
		d := p.Pos.Sub(center)
		dist := d.Len()
		if dist >= radius {
			continue
		}
		dir := d.Norm()
		if dir == m3.Zero {
			dir = m3.V(0, 1, 0)
		}
		dv := dir.Scale(impulse * (1 - dist/radius) * p.InvMass)
		p.Prev = p.Prev.Sub(dv.Scale(dt))
		hit++
	}
	return hit
}

// schedule rebuilds sched: Constraints counting-sorted by wavefront
// level. A constraint's level is the larger of its two particles'
// next-free levels, and it advances both past its own — so constraints
// that share a particle land on increasing levels in their original
// order, and the constraints of one level touch disjoint particles.
//
//paraxlint:coldpath runs on the first Relax after construction, restore or an append to Constraints
func (c *Cloth) schedule() {
	free := make([]int32, len(c.Particles)) // next free level per particle
	level := make([]int32, len(c.Constraints))
	start := make([]int32, len(c.Constraints)+1) // start[l+1] counts level l, then start[l] becomes its first slot
	for k, con := range c.Constraints {
		l := max(free[con.I], free[con.J])
		free[con.I], free[con.J] = l+1, l+1
		level[k] = l
		start[l+1]++
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	c.sched = make([]Constraint, len(c.Constraints))
	for k, con := range c.Constraints {
		c.sched[start[level[k]]] = con
		start[level[k]]++
	}
}

// Relax runs Iterations Gauss-Seidel sweeps over the constraints in
// wavefront order (see schedule). An update reads and writes only its
// own two particles, so updates that share none commute exactly, and the
// schedule keeps every sharing pair in Constraints order: each sweep is
// bit-identical to one over Constraints itself, but neighbouring updates
// are independent and the core overlaps their sqrt-and-divide chains.
func (c *Cloth) Relax() {
	if len(c.sched) != len(c.Constraints) {
		c.schedule()
	}
	st := &c.LastStats
	for it := 0; it < c.Iterations; it++ {
		for _, con := range c.sched {
			a := &c.Particles[con.I]
			b := &c.Particles[con.J]
			d := b.Pos.Sub(a.Pos)
			dist := d.Len()
			if dist < m3.Eps {
				continue
			}
			w := a.InvMass + b.InvMass
			if w == 0 {
				continue
			}
			corr := d.Scale((dist - con.Rest) / dist / w)
			a.Pos = a.Pos.Add(corr.Scale(a.InvMass))
			b.Pos = b.Pos.Sub(corr.Scale(b.InvMass))
			st.ConstraintUpdates++
		}
	}
}

// CollideGeom projects penetrating particles out of a rigid geom. Fast
// vertices (moving more than the geom's extent) are ray cast from their
// previous position to catch tunneling.
func (c *Cloth) CollideGeom(g *geom.Geom) {
	st := &c.LastStats
	if !c.Box.Overlaps(g.Box) {
		return
	}
	for i := range c.Particles {
		p := &c.Particles[i]
		if p.InvMass == 0 {
			continue
		}
		st.CollisionTests++
		move := p.Pos.Sub(p.Prev)
		dist := move.Len()
		if dist > 4*c.Thickness {
			// Ray cast for tunneling.
			st.RayCasts++
			if hit, ok := c.scr.RayCast(g, p.Prev, move.Scale(1/dist), dist); ok {
				p.Pos = hit.Pos.Add(hit.Normal.Scale(c.Thickness))
				c.applyFriction(p, hit.Normal)
				continue
			}
		}
		before := p.Pos
		c.projectOut(p, g)
		if shift := p.Pos.Sub(before); shift.Len2() > m3.Eps {
			c.applyFriction(p, shift.Norm())
		}
	}
}

// applyFriction rewrites a projected particle's previous position so
// that its implied velocity loses the normal component entirely and a
// Friction fraction of the tangential component (the vertex projection
// scheme's contact response).
func (c *Cloth) applyFriction(p *Particle, n m3.Vec) {
	vel := p.Pos.Sub(p.Prev)
	vt := vel.Sub(n.Scale(vel.Dot(n)))
	p.Prev = p.Pos.Sub(vt.Scale(1 - c.Friction))
}

// projectOut pushes a single particle out of the geom if penetrating.
func (c *Cloth) projectOut(p *Particle, g *geom.Geom) {
	switch s := g.Shape.(type) {
	case geom.Sphere:
		d := p.Pos.Sub(g.Pos)
		dist := d.Len()
		if dist < s.R+c.Thickness {
			n := d.Norm()
			if dist < m3.Eps {
				n = m3.V(0, 1, 0)
			}
			p.Pos = g.Pos.Add(n.Scale(s.R + c.Thickness))
		}
	case geom.Box:
		cl, inside := closestOnBox(p.Pos, g, s)
		if inside {
			p.Pos = cl
			return
		}
		d := p.Pos.Sub(cl)
		if dist := d.Len(); dist < c.Thickness {
			p.Pos = cl.Add(d.Scale(c.Thickness / math.Max(dist, m3.Eps)))
		}
	case geom.Capsule:
		p0, p1 := s.Ends(g.Pos, g.Rot)
		seg := p1.Sub(p0)
		t := p.Pos.Sub(p0).Dot(seg) / math.Max(seg.Len2(), m3.Eps)
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
		axis := p0.Add(seg.Scale(t))
		d := p.Pos.Sub(axis)
		if dist := d.Len(); dist < s.R+c.Thickness {
			n := d.Norm()
			if dist < m3.Eps {
				n = m3.V(0, 1, 0)
			}
			p.Pos = axis.Add(n.Scale(s.R + c.Thickness))
		}
	case geom.Plane:
		if depth := s.Depth(p.Pos); depth < c.Thickness {
			p.Pos = p.Pos.Add(s.Normal.Scale(c.Thickness - depth))
		}
	case *geom.HeightField:
		lx, lz := p.Pos.X-g.Pos.X, p.Pos.Z-g.Pos.Z
		h := s.HeightAt(lx, lz) + g.Pos.Y
		if p.Pos.Y < h+c.Thickness {
			p.Pos.Y = h + c.Thickness
		}
	case *geom.TriMesh:
		// Project onto nearby triangles.
		q := m3.AABBAt(p.Pos.Sub(g.Pos), m3.V(c.Thickness*4, c.Thickness*4, c.Thickness*4))
		c.triBuf = s.TrianglesIn(q, c.triBuf[:0])
		for _, ti := range c.triBuf {
			v0, v1, v2 := s.TriVerts(ti)
			v0, v1, v2 = v0.Add(g.Pos), v1.Add(g.Pos), v2.Add(g.Pos)
			cl := closestPointTri(p.Pos, v0, v1, v2)
			d := p.Pos.Sub(cl)
			if dist := d.Len(); dist < c.Thickness {
				p.Pos = cl.Add(d.Scale(c.Thickness / math.Max(dist, m3.Eps)))
			}
		}
	}
}

// closestOnBox is like the narrow-phase helper but keeps interior
// resolution on the surface.
func closestOnBox(p m3.Vec, g *geom.Geom, b geom.Box) (m3.Vec, bool) {
	l := g.Rot.TMulVec(p.Sub(g.Pos))
	inside := true
	var cl m3.Vec
	for i := 0; i < 3; i++ {
		v := l.Comp(i)
		h := b.Half.Comp(i)
		if v < -h {
			v, inside = -h, false
		} else if v > h {
			v, inside = h, false
		}
		cl = cl.SetComp(i, v)
	}
	if inside {
		// Push to the nearest face.
		bestD := math.Inf(1)
		axis, sign := 0, 1.0
		for i := 0; i < 3; i++ {
			h := b.Half.Comp(i)
			if d := h - l.Comp(i); d < bestD {
				bestD, axis, sign = d, i, 1
			}
			if d := h + l.Comp(i); d < bestD {
				bestD, axis, sign = d, i, -1
			}
		}
		cl = cl.SetComp(axis, sign*b.Half.Comp(axis))
	}
	return g.Rot.MulVec(cl).Add(g.Pos), inside
}

func closestPointTri(p, a, b, cc m3.Vec) m3.Vec {
	// Delegate to the same math as the narrow phase (re-derived here to
	// avoid exporting internals): project onto the plane, clamp to edges.
	ab := b.Sub(a)
	ac := cc.Sub(a)
	n := ab.Cross(ac)
	if n.Len2() < m3.Eps {
		return a
	}
	// Barycentric clamp via the standard region walk.
	ap := p.Sub(a)
	d1, d2 := ab.Dot(ap), ac.Dot(ap)
	if d1 <= 0 && d2 <= 0 {
		return a
	}
	bp := p.Sub(b)
	d3, d4 := ab.Dot(bp), ac.Dot(bp)
	if d3 >= 0 && d4 <= d3 {
		return b
	}
	if vc := d1*d4 - d3*d2; vc <= 0 && d1 >= 0 && d3 <= 0 {
		return a.Add(ab.Scale(d1 / (d1 - d3)))
	}
	cp := p.Sub(cc)
	d5, d6 := ab.Dot(cp), ac.Dot(cp)
	if d6 >= 0 && d5 <= d6 {
		return cc
	}
	if vb := d5*d2 - d1*d6; vb <= 0 && d2 >= 0 && d6 <= 0 {
		return a.Add(ac.Scale(d2 / (d2 - d6)))
	}
	if va := d3*d6 - d5*d4; va <= 0 && (d4-d3) >= 0 && (d5-d6) >= 0 {
		return b.Add(cc.Sub(b).Scale((d4 - d3) / ((d4 - d3) + (d5 - d6))))
	}
	// Interior: project onto the plane.
	nn := n.Norm()
	return p.Sub(nn.Scale(p.Sub(a).Dot(nn)))
}

// SatisfyPins re-seats pinned particles; bodyPose returns the world pose
// of a body index.
func (c *Cloth) SatisfyPins(bodyPose func(int32) (m3.Vec, m3.Quat)) {
	for _, pin := range c.Pins {
		//paraxlint:allow(parsafe) bodyPose is World.bodyPose, a pure pose read passed as a func only to avoid an import cycle
		pos, rot := bodyPose(pin.Body)
		w := rot.Rotate(pin.Local).Add(pos)
		p := &c.Particles[pin.P]
		p.Prev = p.Pos
		p.Pos = w
	}
}

// MaxStretch returns the largest constraint strain |len/rest - 1|; a
// well-relaxed cloth keeps this small. Used by tests as an invariant.
func (c *Cloth) MaxStretch() float64 {
	worst := 0.0
	for _, con := range c.Constraints {
		d := c.Particles[con.I].Pos.Dist(c.Particles[con.J].Pos)
		if con.Rest < m3.Eps {
			continue
		}
		s := math.Abs(d/con.Rest - 1)
		if s > worst {
			worst = s
		}
	}
	return worst
}

// NumVertices returns the particle count (the cloth's FG task count).
func (c *Cloth) NumVertices() int { return len(c.Particles) }
