// Package export writes world snapshots as Wavefront OBJ files so
// simulations can be inspected in any 3D viewer — the visual
// verification channel (the paper compiled separate display builds for
// visual verification; this engine dumps geometry instead).
package export

import (
	"fmt"
	"io"
	"math"

	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/m3"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// sphereSegments is the latitude and longitude division of every
// sphere and capsule end.
const sphereSegments = 8

// OBJ writes the world's current geometry to w as a Wavefront OBJ.
func OBJ(out io.Writer, w *world.World) error {
	e := &objWriter{out: out}
	fmt.Fprintln(out, "# parallax world snapshot")
	for gi, g := range w.Geoms {
		if g.Flags.Has(geom.FlagCloth) || g.Flags.Has(geom.FlagBlast) {
			continue
		}
		fmt.Fprintf(out, "o geom_%d_%s\n", gi, g.Shape.Kind())
		e.shape(g)
		if e.err != nil {
			return e.err
		}
	}
	for ci, c := range w.Cloths {
		fmt.Fprintf(out, "o cloth_%d\n", ci)
		base := e.n
		for i := range c.Particles {
			e.vert(c.Particles[i].Pos)
		}
		for _, t := range c.Tris {
			e.face(base+int(t[0]), base+int(t[1]), base+int(t[2]))
		}
	}
	return e.err
}

type objWriter struct {
	out io.Writer
	n   int // vertices written
	err error
}

func (e *objWriter) vert(p m3.Vec) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.out, "v %.5f %.5f %.5f\n", p.X, p.Y, p.Z)
	}
	e.n++
}

// face takes zero-based vertex indices.
func (e *objWriter) face(a, b, c int) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.out, "f %d %d %d\n", a+1, b+1, c+1)
	}
}

func (e *objWriter) quad(a, b, c, d int) {
	e.face(a, b, c)
	e.face(a, c, d)
}

func (e *objWriter) shape(g *geom.Geom) {
	switch s := g.Shape.(type) {
	case geom.Sphere:
		e.uvSphere(g.Pos, s.R)
	case geom.Box:
		e.box(g, s.Half)
	case geom.Capsule:
		p0, p1 := s.Ends(g.Pos, g.Rot)
		e.uvSphere(p0, s.R)
		e.uvSphere(p1, s.R)
	case *geom.Hull:
		base := e.n
		for _, v := range s.Verts {
			e.vert(g.Rot.MulVec(v).Add(g.Pos))
		}
		for _, f := range s.Faces {
			e.face(base+int(f[0]), base+int(f[1]), base+int(f[2]))
		}
	case geom.Plane:
		// A large quad around the origin projection.
		u, w := s.Normal.Basis()
		c := s.Normal.Scale(s.Offset)
		const ext = 50.0
		base := e.n
		e.vert(c.Add(u.Scale(ext)).Add(w.Scale(ext)))
		e.vert(c.Add(u.Scale(ext)).Sub(w.Scale(ext)))
		e.vert(c.Sub(u.Scale(ext)).Sub(w.Scale(ext)))
		e.vert(c.Sub(u.Scale(ext)).Add(w.Scale(ext)))
		e.quad(base, base+1, base+2, base+3)
	case *geom.HeightField:
		base := e.n
		for z := 0; z < s.NZ; z++ {
			for x := 0; x < s.NX; x++ {
				e.vert(g.Pos.Add(m3.V(float64(x)*s.CellX, s.Heights[z*s.NX+x], float64(z)*s.CellZ)))
			}
		}
		idx := func(x, z int) int { return base + z*s.NX + x }
		for z := 0; z < s.NZ-1; z++ {
			for x := 0; x < s.NX-1; x++ {
				e.quad(idx(x, z), idx(x+1, z), idx(x+1, z+1), idx(x, z+1))
			}
		}
	case *geom.TriMesh:
		base := e.n
		for _, v := range s.Verts {
			e.vert(v.Add(g.Pos))
		}
		for _, t := range s.Tris {
			e.face(base+int(t[0]), base+int(t[1]), base+int(t[2]))
		}
	}
}

// box emits the oriented box's 8 corners and 6 quads.
func (e *objWriter) box(g *geom.Geom, half m3.Vec) {
	base := e.n
	for i := 0; i < 8; i++ {
		c := m3.V(
			half.X*float64(1-2*(i&1)),
			half.Y*float64(1-2*((i>>1)&1)),
			half.Z*float64(1-2*((i>>2)&1)),
		)
		e.vert(g.Rot.MulVec(c).Add(g.Pos))
	}
	quads := [6][4]int{
		{0, 2, 3, 1}, {4, 5, 7, 6}, {0, 1, 5, 4},
		{2, 6, 7, 3}, {0, 4, 6, 2}, {1, 3, 7, 5},
	}
	for _, q := range quads {
		e.quad(base+q[0], base+q[1], base+q[2], base+q[3])
	}
}

// uvSphere emits a latitude/longitude tessellated sphere.
func (e *objWriter) uvSphere(center m3.Vec, r float64) {
	const seg = sphereSegments
	base := e.n
	// Poles plus (seg-1) rings of seg vertices.
	e.vert(center.Add(m3.V(0, r, 0)))
	for ring := 1; ring < seg; ring++ {
		phi := math.Pi * float64(ring) / float64(seg)
		for s := 0; s < seg; s++ {
			theta := 2 * math.Pi * float64(s) / float64(seg)
			e.vert(center.Add(m3.V(
				r*math.Sin(phi)*math.Cos(theta),
				r*math.Cos(phi),
				r*math.Sin(phi)*math.Sin(theta),
			)))
		}
	}
	e.vert(center.Add(m3.V(0, -r, 0)))
	last := e.n - 1
	ringAt := func(ring, s int) int { return base + 1 + (ring-1)*seg + (s % seg) }
	for s := 0; s < seg; s++ {
		e.face(base, ringAt(1, s+1), ringAt(1, s))
	}
	for ring := 1; ring < seg-1; ring++ {
		for s := 0; s < seg; s++ {
			e.quad(ringAt(ring, s), ringAt(ring, s+1), ringAt(ring+1, s+1), ringAt(ring+1, s))
		}
	}
	for s := 0; s < seg; s++ {
		e.face(last, ringAt(seg-1, s), ringAt(seg-1, s+1))
	}
}
