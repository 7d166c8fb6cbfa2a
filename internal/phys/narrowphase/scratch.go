package narrowphase

import (
	"github.com/parallax-arch/parallax/internal/phys/arena"
	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

// Scratch holds one worker's reusable buffers for collision and ray
// queries: the triangle-index list and generation-stamped dedup marks
// for mesh queries, and the EPA polytope storage. Buffers grow to the
// scene's high-water mark and are then reused forever, so steady-state
// narrow-phase calls through a Scratch never allocate.
//
// A Scratch must not be shared between concurrent workers: each
// narrow-phase chunk owns one (inside its narrowEvents buffer set) and
// each cloth object owns one.
type Scratch struct {
	// Triangle queries (trimesh contact and ray paths).
	tris []int32
	seen []uint32 // generation stamp per triangle index
	gen  uint32

	// EPA polytope storage (hull contact paths).
	verts   []mkv
	faces   []epaFace
	alt     []epaFace
	horizon []epaEdge
}

// Collide computes the contact manifold for the pair (a, b) and appends
// it to dst, reusing the Scratch's buffers: zero steady-state
// allocation. Pairs involving blast volumes or cloth proxies produce no
// rigid contacts here; the engine handles them separately.
func (scr *Scratch) Collide(a, b *geom.Geom, dst []Contact, st *Stats) []Contact {
	if st != nil {
		st.PairsTested++
	}
	// Canonicalize so that kind(a) <= kind(b); flip results if swapped.
	flip := false
	if a.Shape.Kind() > b.Shape.Kind() {
		a, b = b, a
		flip = true
	}
	start := len(dst)
	dst = collideOrdered(scr, a, b, dst, st)
	if flip {
		for i := start; i < len(dst); i++ {
			dst[i].A, dst[i].B = dst[i].B, dst[i].A
			dst[i].Normal = dst[i].Normal.Neg()
		}
	}
	if st != nil {
		st.ContactsOut += len(dst) - start
		for i := start; i < len(dst); i++ {
			if dst[i].Depth > st.DeepestDepth {
				st.DeepestDepth = dst[i].Depth
			}
		}
	}
	return dst
}

// triQuery collects the distinct triangles overlapping query, in bucket
// emission order (first occurrence wins, exactly like the map-based
// dedup it replaces — contact order is deterministic). The result
// aliases scr.tris and is valid until the next query on this Scratch.
func (scr *Scratch) triQuery(tm *geom.TriMesh, query m3.AABB) []int32 {
	scr.tris = tm.TrianglesIn(query, scr.tris[:0])
	// Stamps only ever mean something within the query that wrote them:
	// the ones a regrown seen keeps are older than this query's generation.
	scr.seen = arena.Grow(scr.seen, len(tm.Tris))
	seen := scr.seen
	scr.gen++
	if scr.gen == 0 { // stamp wraparound: reset all marks
		clear(scr.seen[:cap(scr.seen)])
		scr.gen = 1
	}
	out := scr.tris[:0]
	for _, ti := range scr.tris {
		if seen[ti] == scr.gen {
			continue
		}
		seen[ti] = scr.gen
		out = append(out, ti)
	}
	scr.tris = out
	return out
}
