package narrowphase

import (
	"math"

	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

// GJK/EPA collision for convex shapes, used by the hull paths of the
// narrow phase. Any convex shape is represented by its support
// function; the Minkowski-difference simplex (GJK) answers the overlap
// question and the expanding polytope (EPA) recovers penetration depth,
// normal, and witness points.

// supportShape is a devirtualized support function: one flat struct per
// convex shape, dispatched by kind. The earlier closure-per-shape
// representation allocated on every hull pair; building a supportShape
// is a stack write.
type supportShape struct {
	kind   geom.Kind
	pos    m3.Vec
	rot    m3.Mat
	r      float64 // sphere/capsule radius
	half   m3.Vec  // box half extents
	p0, p1 m3.Vec  // capsule axis endpoints (world)
	hull   *geom.Hull
}

// makeSupport builds the support shape for a convex geom. It panics on
// non-convex shapes (plane/heightfield/trimesh), which never reach the
// GJK paths.
func makeSupport(g *geom.Geom) supportShape {
	switch s := g.Shape.(type) {
	case geom.Sphere:
		return supportShape{kind: geom.KindSphere, pos: g.Pos, r: s.R}
	case geom.Box:
		return supportShape{kind: geom.KindBox, pos: g.Pos, rot: g.Rot, half: s.Half}
	case geom.Capsule:
		p0, p1 := s.Ends(g.Pos, g.Rot)
		return supportShape{kind: geom.KindCapsule, p0: p0, p1: p1, r: s.R}
	case *geom.Hull:
		return supportShape{kind: geom.KindHull, pos: g.Pos, rot: g.Rot, hull: s}
	}
	panic("narrowphase: support function requested for a non-convex shape")
}

// at evaluates the support function in world direction d.
func (s *supportShape) at(d m3.Vec) m3.Vec {
	switch s.kind {
	case geom.KindSphere:
		return s.pos.Add(d.Norm().Scale(s.r))
	case geom.KindBox:
		l := s.rot.TMulVec(d)
		p := m3.V(
			math.Copysign(s.half.X, l.X),
			math.Copysign(s.half.Y, l.Y),
			math.Copysign(s.half.Z, l.Z),
		)
		return s.rot.MulVec(p).Add(s.pos)
	case geom.KindCapsule:
		e := s.p0
		if d.Dot(s.p1) > d.Dot(s.p0) {
			e = s.p1
		}
		return e.Add(d.Norm().Scale(s.r))
	case geom.KindHull:
		return s.rot.MulVec(s.hull.SupportLocal(s.rot.TMulVec(d))).Add(s.pos)
	}
	return m3.Zero
}

// mkv is one Minkowski-difference vertex with its witnesses.
type mkv struct {
	p      m3.Vec // supA - supB
	wa, wb m3.Vec
}

func minkowski(sa, sb *supportShape, d m3.Vec) mkv {
	a := sa.at(d)
	b := sb.at(d.Neg())
	return mkv{p: a.Sub(b), wa: a, wb: b}
}

// gjk runs the boolean GJK test. On overlap it returns the final
// tetrahedral simplex for EPA.
func gjk(sa, sb *supportShape) (simplex [4]mkv, n int, hit bool) {
	d := m3.V(1, 0, 0)
	v := minkowski(sa, sb, d)
	simplex[0] = v
	n = 1
	d = v.p.Neg()
	for iter := 0; iter < 64; iter++ {
		if d.Len2() < 1e-18 {
			// Origin on the simplex boundary: treat as touching.
			return simplex, n, true
		}
		v = minkowski(sa, sb, d)
		if v.p.Dot(d) < 0 {
			return simplex, n, false // origin outside the support plane
		}
		// Insert new point at the front.
		copy(simplex[1:], simplex[:n])
		simplex[0] = v
		if n < 4 {
			n++
		}
		var contains bool
		simplex, n, d, contains = nextSimplex(simplex, n)
		if contains {
			return simplex, n, true
		}
	}
	return simplex, n, false
}

// nextSimplex reduces the simplex to the feature closest to the origin
// and returns the next search direction.
func nextSimplex(s [4]mkv, n int) ([4]mkv, int, m3.Vec, bool) {
	switch n {
	case 2:
		a, b := s[0].p, s[1].p
		ab := b.Sub(a)
		ao := a.Neg()
		if ab.Dot(ao) > 0 {
			d := ab.Cross(ao).Cross(ab)
			return s, 2, d, false
		}
		return s, 1, ao, false
	case 3:
		a, b, c := s[0].p, s[1].p, s[2].p
		ab := b.Sub(a)
		ac := c.Sub(a)
		ao := a.Neg()
		abc := ab.Cross(ac)
		if abc.Cross(ac).Dot(ao) > 0 {
			if ac.Dot(ao) > 0 {
				s[1] = s[2]
				return s, 2, ac.Cross(ao).Cross(ac), false
			}
			return s, 2, ab.Cross(ao).Cross(ab), false
		}
		if ab.Cross(abc).Dot(ao) > 0 {
			return s, 2, ab.Cross(ao).Cross(ab), false
		}
		if abc.Dot(ao) > 0 {
			return s, 3, abc, false
		}
		// Below the triangle: flip winding.
		s[1], s[2] = s[2], s[1]
		return s, 3, abc.Neg(), false
	case 4:
		a := s[0].p
		b := s[1].p
		c := s[2].p
		dd := s[3].p
		ao := a.Neg()
		ab := b.Sub(a)
		ac := c.Sub(a)
		ad := dd.Sub(a)
		abc := ab.Cross(ac)
		acd := ac.Cross(ad)
		adb := ad.Cross(ab)
		if abc.Dot(ao) > 0 {
			return [4]mkv{s[0], s[1], s[2]}, 3, abc, false
		}
		if acd.Dot(ao) > 0 {
			return [4]mkv{s[0], s[2], s[3]}, 3, acd, false
		}
		if adb.Dot(ao) > 0 {
			return [4]mkv{s[0], s[3], s[1]}, 3, adb, false
		}
		return s, 4, m3.Zero, true
	}
	return s, n, s[0].p.Neg(), false
}

// epaFace is one triangle of the expanding polytope.
type epaFace struct {
	a, b, c int
	normal  m3.Vec // outward unit normal
	dist    float64
}

// epaEdge is one horizon edge during polytope expansion.
type epaEdge struct{ a, b int }

// epaDirs completes a degenerate terminal simplex to a tetrahedron.
var epaDirs = [8]m3.Vec{
	{X: 1}, {X: -1}, {Y: 1}, {Y: -1}, {Z: 1}, {Z: -1},
	{X: 1, Y: 1, Z: 1}, {X: -1, Y: -1, Z: -1},
}

// refreshEpaFace recomputes a face's outward normal and distance,
// orienting it against the interior point. It reports false on a
// degenerate (collinear) face.
func refreshEpaFace(verts []mkv, interior m3.Vec, f *epaFace) bool {
	a, b, c := verts[f.a].p, verts[f.b].p, verts[f.c].p
	nrm := b.Sub(a).Cross(c.Sub(a))
	if nrm.Len2() < 1e-18 {
		return false
	}
	nrm = nrm.Norm()
	if nrm.Dot(a.Sub(interior)) < 0 {
		f.b, f.c = f.c, f.b
		nrm = nrm.Neg()
	}
	f.normal = nrm
	d := nrm.Dot(a)
	if d < 0 {
		d = 0 // origin marginally outside a boundary face: clamp
	}
	f.dist = d
	return true
}

// addHorizonEdge inserts e unless its reverse is already present (an
// edge shared by two removed faces is interior, not horizon), in which
// case the reverse is removed instead.
func addHorizonEdge(h []epaEdge, e epaEdge) []epaEdge {
	for i, x := range h {
		if x.a == e.b && x.b == e.a {
			return append(h[:i], h[i+1:]...)
		}
	}
	return append(h, e)
}

// epaWitness projects the origin onto the face and blends the witness
// points barycentrically.
func epaWitness(verts []mkv, f epaFace) (normal m3.Vec, depth float64, point m3.Vec) {
	a, b, c := verts[f.a], verts[f.b], verts[f.c]
	u, vv, w := barycentric(f.normal.Scale(f.dist), a.p, b.p, c.p)
	wa := a.wa.Scale(u).Add(b.wa.Scale(vv)).Add(c.wa.Scale(w))
	wb := a.wb.Scale(u).Add(b.wb.Scale(vv)).Add(c.wb.Scale(w))
	return f.normal, f.dist, wa.Add(wb).Scale(0.5)
}

// epa expands the terminal GJK simplex to find the penetration depth,
// contact normal (pointing from shape A toward shape B) and witness
// point. All polytope storage lives in the Scratch and is reused across
// calls; the arithmetic and iteration order are identical to the
// allocating version this replaced, so results are bit-identical.
func epa(sa, sb *supportShape, scr *Scratch, simplex [4]mkv, n int) (normal m3.Vec, depth float64, point m3.Vec, ok bool) {
	verts := scr.verts[:0]
	verts = append(verts, simplex[:n]...)
	scr.verts = verts
	// Complete degenerate simplices to a tetrahedron.
	for di := 0; len(verts) < 4 && di < len(epaDirs); di++ {
		v := minkowski(sa, sb, epaDirs[di])
		dup := false
		for _, w := range verts {
			if w.p.Sub(v.p).Len2() < 1e-16 {
				dup = true
				break
			}
		}
		if !dup {
			verts = append(verts, v)
			scr.verts = verts
		}
	}
	if len(verts) < 4 {
		return m3.Zero, 0, m3.Zero, false
	}

	faces := scr.faces[:0]
	faces = append(faces,
		epaFace{a: 0, b: 1, c: 2}, epaFace{a: 0, b: 2, c: 3},
		epaFace{a: 0, b: 3, c: 1}, epaFace{a: 1, b: 3, c: 2})
	alt := scr.alt[:0]
	scr.faces, scr.alt = faces, alt
	// Orient faces against an interior point (the initial tetrahedron's
	// centroid), not the origin: the origin may lie exactly on a face of
	// the terminal GJK simplex, where its side is numerically ambiguous
	// and a misoriented face corrupts the polytope.
	interior := verts[0].p.Add(verts[1].p).Add(verts[2].p).Add(verts[3].p).Scale(0.25)
	for i := range faces {
		if !refreshEpaFace(verts, interior, &faces[i]) {
			return m3.Zero, 0, m3.Zero, false
		}
	}

	for iter := 0; iter < 96; iter++ {
		// Closest face to the origin.
		best := 0
		for i := 1; i < len(faces); i++ {
			if faces[i].dist < faces[best].dist {
				best = i
			}
		}
		f := faces[best]
		v := minkowski(sa, sb, f.normal)
		grow := v.p.Dot(f.normal) - f.dist
		if grow < 1e-7 || iter == 95 {
			// Converged: project the origin onto the face for witnesses.
			normal, depth, point = epaWitness(verts, f)
			return normal, depth, point, true
		}
		// Split every face visible from the new vertex, keeping the
		// horizon edges. kept fills the ping-pong buffer, never the one
		// being iterated.
		vi := len(verts)
		verts = append(verts, v)
		scr.verts = verts
		horizon := scr.horizon[:0]
		kept := alt[:0]
		for _, fc := range faces {
			if fc.normal.Dot(v.p.Sub(verts[fc.a].p)) > 0 {
				horizon = addHorizonEdge(horizon, epaEdge{fc.a, fc.b})
				horizon = addHorizonEdge(horizon, epaEdge{fc.b, fc.c})
				horizon = addHorizonEdge(horizon, epaEdge{fc.c, fc.a})
			} else {
				kept = append(kept, fc)
			}
		}
		scr.horizon = horizon
		if len(horizon) == 0 {
			// Numerical trouble: accept the current best face.
			normal, depth, point = epaWitness(verts, f)
			return normal, depth, point, true
		}
		for _, e := range horizon {
			nf := epaFace{a: e.a, b: e.b, c: vi}
			if refreshEpaFace(verts, interior, &nf) {
				kept = append(kept, nf)
			}
		}
		faces, alt = kept, faces
		scr.faces, scr.alt = faces, alt
		if len(faces) == 0 {
			return m3.Zero, 0, m3.Zero, false
		}
	}
	return m3.Zero, 0, m3.Zero, false
}

// barycentric returns the barycentric coordinates of p on triangle
// (a, b, c), clamped to the triangle.
func barycentric(p, a, b, c m3.Vec) (u, v, w float64) {
	v0 := b.Sub(a)
	v1 := c.Sub(a)
	v2 := p.Sub(a)
	d00 := v0.Dot(v0)
	d01 := v0.Dot(v1)
	d11 := v1.Dot(v1)
	d20 := v2.Dot(v0)
	d21 := v2.Dot(v1)
	den := d00*d11 - d01*d01
	if math.Abs(den) < 1e-18 {
		return 1, 0, 0
	}
	v = (d11*d20 - d01*d21) / den
	w = (d00*d21 - d01*d20) / den
	u = 1 - v - w
	// Clamp (degenerate projections).
	if u < 0 {
		u = 0
	}
	if v < 0 {
		v = 0
	}
	if w < 0 {
		w = 0
	}
	s := u + v + w
	if s > 0 {
		u, v, w = u/s, v/s, w/s
	}
	return u, v, w
}

// convexConvex produces a single GJK/EPA contact between two convex
// geoms (at least one a hull).
func convexConvex(scr *Scratch, a, b *geom.Geom, dst []Contact, st *Stats) []Contact {
	primTest(st)
	sa, sb := makeSupport(a), makeSupport(b)
	simplex, n, hit := gjk(&sa, &sb)
	if !hit {
		return dst
	}
	normal, depth, point, ok := epa(&sa, &sb, scr, simplex, n)
	if !ok || depth <= 0 {
		return dst
	}
	// EPA's outward normal on A - B is the direction along which B must
	// move (and A must move oppositely) to separate — exactly the
	// contact convention (Normal points from A into B).
	return append(dst, Contact{
		A: int32(a.ID), B: int32(b.ID),
		Pos: point, Normal: normal, Depth: depth,
	})
}

// hullPlane rests a hull on a plane: every vertex below the surface
// becomes a contact (capped to the deepest MaxContactsPerPair).
func hullPlane(a, b *geom.Geom, dst []Contact, st *Stats) []Contact {
	primTest(st)
	h := a.Shape.(*geom.Hull)
	p := b.Shape.(geom.Plane)
	start := len(dst)
	for _, v := range h.Verts {
		w := a.Rot.MulVec(v).Add(a.Pos)
		depth := -p.Depth(w)
		if depth <= 0 {
			continue
		}
		dst = append(dst, Contact{
			A: int32(a.ID), B: int32(b.ID),
			Pos: w, Normal: p.Normal.Neg(), Depth: depth,
		})
	}
	return capManifold(dst, start)
}

// hullHeightField rests a hull on terrain by vertex sampling.
func hullHeightField(a, b *geom.Geom, dst []Contact, st *Stats) []Contact {
	h := a.Shape.(*geom.Hull)
	hf := b.Shape.(*geom.HeightField)
	start := len(dst)
	for _, v := range h.Verts {
		triTest(st)
		w := a.Rot.MulVec(v).Add(a.Pos)
		lx, lz := w.X-b.Pos.X, w.Z-b.Pos.Z
		hgt := hf.HeightAt(lx, lz) + b.Pos.Y
		if w.Y >= hgt {
			continue
		}
		n := hf.NormalAt(lx, lz)
		dst = append(dst, Contact{
			A: int32(a.ID), B: int32(b.ID),
			Pos: w, Normal: n.Neg(), Depth: hgt - w.Y,
		})
	}
	return capManifold(dst, start)
}
