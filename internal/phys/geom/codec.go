package geom

import (
	"math"

	"github.com/parallax-arch/parallax/internal/phys/enc"
)

// Shape serialization for the world snapshot format. The encoding is a
// one-byte kind tag followed by the shape's defining fields.
//
// Derived state is handled per shape so a load-store round trip (and a
// restored simulation) is byte-identical to the original:
//
//   - HeightField and TriMesh rebuild their derived state through the
//     public constructors, which recompute it deterministically from the
//     encoded fields.
//   - Hull serializes its derived fields (volume, unit inertia, bounding
//     radius) directly: NewHull re-centers the vertices on the recomputed
//     centroid, and re-running that on already-centered vertices would
//     reproduce the same values only up to floating-point rounding —
//     not bit-exactly.

// Shape kind tags in the snapshot encoding. These are part of the
// serialized format and must never be renumbered; Kind values are
// ordered for narrow-phase dispatch and are not stored directly.
const (
	tagSphere uint8 = iota
	tagBox
	tagCapsule
	tagPlane
	tagHeightField
	tagTriMesh
	tagHull
	tagUnknown = uint8(255)
)

func shapeTag(s Shape) uint8 {
	switch s.(type) {
	case Sphere:
		return tagSphere
	case Box, *Box:
		return tagBox
	case Capsule:
		return tagCapsule
	case Plane:
		return tagPlane
	case *HeightField:
		return tagHeightField
	case *TriMesh:
		return tagTriMesh
	case *Hull:
		return tagHull
	}
	return tagUnknown
}

// CodeTris codes a counted triangle list whose vertex indices index a
// list of nVerts vertices.
func CodeTris(c *enc.Codec, tris *[]Tri, nVerts int) {
	enc.Slice(c, tris, 12, "triangle", func(_ int, t *Tri) {
		for k := range t {
			c.Index(&t[k], nVerts, false, "vertex")
		}
	})
}

// CodeShape codes one shape, every kind in the package; storing any
// other Shape implementation fails the codec. Value shapes (sphere,
// box, capsule, plane) load by value, and a *Box stores as a box:
// callers that need a mutable boxed shape (the world's cloth proxies)
// re-box the loaded one themselves.
func CodeShape(c *enc.Codec, s *Shape) {
	tag := shapeTag(*s)
	c.U8(&tag)
	switch tag {
	case tagSphere:
		sh, _ := (*s).(Sphere)
		c.F64(&sh.R)
		if c.Loading() {
			*s = sh
		}
	case tagBox:
		sh, _ := (*s).(Box)
		if p, ok := (*s).(*Box); ok {
			sh = *p
		}
		c.Vec(&sh.Half)
		if c.Loading() {
			*s = sh
		}
	case tagCapsule:
		sh, _ := (*s).(Capsule)
		c.F64(&sh.R)
		c.F64(&sh.HalfLen)
		if c.Loading() {
			*s = sh
		}
	case tagPlane:
		sh, _ := (*s).(Plane)
		c.Vec(&sh.Normal)
		c.F64(&sh.Offset)
		if c.Loading() {
			*s = sh
		}
	case tagHeightField:
		sh, _ := (*s).(*HeightField)
		if sh == nil {
			sh = &HeightField{}
		}
		// HeightAt reads the four corners of a cell, so a field has at
		// least one cell.
		c.Int(&sh.NX, 2, math.MaxInt32, "heightfield NX")
		c.Int(&sh.NZ, 2, math.MaxInt32, "heightfield NZ")
		c.F64(&sh.CellX)
		c.F64(&sh.CellZ)
		c.F64s(&sh.Heights)
		if c.Loading() {
			if int64(sh.NX)*int64(sh.NZ) != int64(len(sh.Heights)) {
				c.Failf("heightfield %dx%d does not match %d heights", sh.NX, sh.NZ, len(sh.Heights))
			}
			*s = NewHeightField(sh.NX, sh.NZ, sh.CellX, sh.CellZ, sh.Heights)
		}
	case tagTriMesh:
		sh, _ := (*s).(*TriMesh)
		if sh == nil {
			sh = &TriMesh{}
		}
		c.Vecs(&sh.Verts)
		CodeTris(c, &sh.Tris, len(sh.Verts))
		if c.Loading() {
			*s = NewTriMesh(sh.Verts, sh.Tris)
		}
	case tagHull:
		sh, _ := (*s).(*Hull)
		if sh == nil {
			sh = &Hull{}
		}
		c.Vecs(&sh.Verts)
		CodeTris(c, &sh.Faces, len(sh.Verts))
		c.F64(&sh.volume)
		c.Vec(&sh.centroid)
		c.Mat(&sh.unitInertia)
		c.F64(&sh.radius)
		if c.Loading() {
			*s = sh
		}
	default:
		if c.Loading() {
			c.Failf("unknown shape tag %d", tag)
		} else {
			c.Failf("cannot encode shape type %T", *s)
		}
	}
}
