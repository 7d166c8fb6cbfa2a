// Package island implements Island Creation, the engine's serial phase:
// grouping bodies connected by joints or contacts into independent
// islands (connected components) using a union-find structure. The full
// contact topology is only known after the last pair is examined, which
// is why this phase serializes the pipeline (paper section 3.2).
package island

import "github.com/parallax-arch/parallax/internal/phys/arena"

// Island is one connected component of interacting bodies. Joints and
// Contacts index into the caller's per-step lists.
type Island struct {
	Bodies   []int32
	Joints   []int32
	Contacts []int32
	// DOF is the number of constraint rows (degrees of freedom removed)
	// in this island — the island's fine-grain task count.
	DOF int
}

// Edge connects two bodies through a joint or contact. Either endpoint
// may be -1 (the static world), which does not merge anything but still
// assigns the constraint to the island of the dynamic endpoint.
type Edge struct {
	A, B int32
	// Ref is the caller's joint or contact index.
	Ref int32
	// IsContact distinguishes the two constraint lists.
	IsContact bool
	// DOF is the number of rows this constraint contributes.
	DOF int
}

// Builder groups bodies into islands. Its zero value is ready to use, and
// all working storage persists between Build calls: the union-find arrays
// and one flat partition — every island's bodies back to back in bodies,
// likewise joints and contacts, each Island's slices a window into them.
// Members are counted, then filled, so no island owns storage of its own
// and a world whose topology changes every step still builds its islands
// without allocating once the flat arrays have seen the largest scene.
type Builder struct {
	parent  []int32
	rank    []int8
	act     []bool
	slot    []int32 // body index -> island index + 1; 0 = in no island
	islands []Island

	bodies, joints, contacts []int32
	// next[k] counts island k's members while counting; while filling it
	// is where k's next member goes in each flat array.
	next []members

	// findSteps counts parent-chain hops, the serial-phase work measure
	// the architecture model reads.
	findSteps int
}

// members is one count, or one position, per flat array.
type members struct{ bodies, joints, contacts int32 }

// find returns the set representative of x with path compression.
func (b *Builder) find(x int32) int32 {
	root := x
	for b.parent[root] != root {
		root = b.parent[root]
		b.findSteps++
	}
	for b.parent[x] != root {
		b.parent[x], x = root, b.parent[x]
	}
	return root
}

// union merges the sets containing a and b.
func (b *Builder) union(x, y int32) {
	rx, ry := b.find(x), b.find(y)
	if rx == ry {
		return
	}
	if b.rank[rx] < b.rank[ry] {
		rx, ry = ry, rx
	}
	b.parent[ry] = rx
	if b.rank[rx] == b.rank[ry] {
		b.rank[rx]++
	}
}

// reset puts each of n elements in its own set.
func (b *Builder) reset(n int) {
	b.parent = arena.Grow(b.parent, n)
	b.rank = arena.Grow(b.rank, n)
	b.findSteps = 0
	for i := range b.parent {
		b.parent[i] = int32(i)
		b.rank[i] = 0
	}
}

// on reports whether i is a valid, active body index for this Build.
func (b *Builder) on(i int32) bool { return i >= 0 && b.act[i] }

// owner returns the body whose island e's constraint belongs to: its
// first active endpoint, or -1 if both are inactive (e is dropped).
func (b *Builder) owner(e *Edge) int32 {
	switch {
	case b.on(e.A):
		return e.A
	case b.on(e.B):
		return e.B
	}
	return -1
}

// Build groups the given bodies into islands and returns them with the
// union-find work counter. active reports whether a body participates
// (enabled, dynamic, awake); inactive bodies join no island. Constraints
// whose both endpoints are inactive are dropped. The pass is strictly
// sequential, mirroring the serial phase, and the result deterministic:
// islands appear in order of their lowest body index, bodies ascending,
// joints and contacts in edge order. The islands alias the builder's
// storage and are valid until the next Build.
func (b *Builder) Build(numBodies int, edges []Edge, active func(int32) bool) ([]Island, int) {
	b.reset(numBodies)
	b.act = arena.Grow(b.act, numBodies)
	b.slot = arena.Grow(b.slot, numBodies)
	for i := range b.act {
		b.act[i] = active(int32(i))
		b.slot[i] = 0
	}
	for i := range edges {
		if e := &edges[i]; b.on(e.A) && b.on(e.B) {
			b.union(e.A, e.B)
		}
	}

	// Count. Every find the work counter sees happens here — one per
	// active body, then one per owned edge; filling reads slot instead.
	b.islands, b.next = b.islands[:0], b.next[:0]
	var total members
	for i := int32(0); i < int32(numBodies); i++ {
		if !b.act[i] {
			continue
		}
		r := b.find(i)
		if b.slot[r] == 0 {
			b.islands = append(b.islands, Island{})
			b.next = append(b.next, members{})
			b.slot[r] = int32(len(b.islands))
		}
		b.slot[i] = b.slot[r]
		b.next[b.slot[i]-1].bodies++
		total.bodies++
	}
	for i := range edges {
		e := &edges[i]
		o := b.owner(e)
		if o < 0 {
			continue
		}
		k := b.slot[b.find(o)] - 1
		if e.IsContact {
			b.next[k].contacts++
			total.contacts++
		} else {
			b.next[k].joints++
			total.joints++
		}
		b.islands[k].DOF += e.DOF
	}

	// Lay the islands' windows out back to back.
	b.bodies = arena.Grow(b.bodies, int(total.bodies))
	b.joints = arena.Grow(b.joints, int(total.joints))
	b.contacts = arena.Grow(b.contacts, int(total.contacts))
	var at members
	for k := range b.islands {
		is, n := &b.islands[k], b.next[k]
		b.next[k] = at
		is.Bodies = b.bodies[at.bodies : at.bodies+n.bodies]
		is.Joints = b.joints[at.joints : at.joints+n.joints]
		is.Contacts = b.contacts[at.contacts : at.contacts+n.contacts]
		at.bodies += n.bodies
		at.joints += n.joints
		at.contacts += n.contacts
	}

	// Fill, in the order counted.
	for i, s := range b.slot {
		if s != 0 {
			at := &b.next[s-1]
			b.bodies[at.bodies] = int32(i)
			at.bodies++
		}
	}
	for i := range edges {
		e := &edges[i]
		o := b.owner(e)
		if o < 0 {
			continue
		}
		at := &b.next[b.slot[o]-1]
		if e.IsContact {
			b.contacts[at.contacts] = e.Ref
			at.contacts++
		} else {
			b.joints[at.joints] = e.Ref
			at.joints++
		}
	}
	return b.islands, b.findSteps
}
