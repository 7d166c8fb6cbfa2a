// Package island implements Island Creation, the engine's serial phase:
// grouping bodies connected by joints or contacts into independent
// islands (connected components) using a union-find structure. The full
// contact topology is only known after the last pair is examined, which
// is why this phase serializes the pipeline (paper section 3.2).
package island

// DSU is a union-find (disjoint-set union) structure over body indices.
type DSU struct {
	parent []int32
	rank   []int8
	// FindSteps counts parent-chain hops, a work measure for the
	// architecture model.
	FindSteps int
}

// NewDSU returns a DSU over n elements, each in its own set.
func NewDSU(n int) *DSU {
	d := &DSU{parent: make([]int32, n), rank: make([]int8, n)}
	for i := range d.parent {
		d.parent[i] = int32(i)
	}
	return d
}

// Find returns the set representative of x, with path compression.
func (d *DSU) Find(x int32) int32 {
	root := x
	for d.parent[root] != root {
		root = d.parent[root]
		d.FindSteps++
	}
	for d.parent[x] != root {
		d.parent[x], x = root, d.parent[x]
	}
	return root
}

// Union merges the sets containing a and b.
func (d *DSU) Union(a, b int32) {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return
	}
	if d.rank[ra] < d.rank[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	if d.rank[ra] == d.rank[rb] {
		d.rank[ra]++
	}
}

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

// Build groups the given bodies into islands. active reports whether a
// body participates (enabled, dynamic, awake); inactive bodies join no
// island. Constraints whose both endpoints are inactive are dropped.
// The pass is strictly sequential, mirroring the serial phase.
func Build(numBodies int, edges []Edge, active func(int32) bool) []Island {
	islands, _ := BuildCounted(numBodies, edges, active)
	return islands
}

// BuildCounted is Build plus the union-find work counter used by the
// architecture model.
func BuildCounted(numBodies int, edges []Edge, active func(int32) bool) ([]Island, int) {
	var b Builder
	return b.Build(numBodies, edges, active)
}

// Builder is a reusable island builder: all working storage (the
// union-find arrays, the root->slot table, and the island lists
// themselves) persists between Build calls, so a world stepping at a
// stable topology builds its islands without allocating. The returned
// islands alias the builder's storage and are valid until the next
// Build.
type Builder struct {
	parent  []int32
	rank    []int8
	act     []bool
	slot    []int32 // body index -> island slot + 1; 0 = unassigned
	islands []Island
	// findSteps counts parent-chain hops, the serial-phase work measure.
	findSteps int
}

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

// addIsland appends one island, reusing the member slices of a
// previously built island occupying the same slot.
func (b *Builder) addIsland() *Island {
	if len(b.islands) < cap(b.islands) {
		b.islands = b.islands[:len(b.islands)+1]
		is := &b.islands[len(b.islands)-1]
		is.Bodies = is.Bodies[:0]
		is.Joints = is.Joints[:0]
		is.Contacts = is.Contacts[:0]
		is.DOF = 0
		return is
	}
	b.islands = append(b.islands, Island{})
	return &b.islands[len(b.islands)-1]
}

// on reports whether i is a valid, active body index for this Build.
func (b *Builder) on(i int32) bool { return i >= 0 && b.act[i] }

// Build implements the same grouping as the package-level Build over
// reused storage. The result is deterministic: islands appear in order
// of their lowest body index, members in ascending order.
func (b *Builder) Build(numBodies int, edges []Edge, active func(int32) bool) ([]Island, int) {
	if cap(b.parent) < numBodies {
		// Capacity growth to the largest body count seen, then reused.
		b.parent = make([]int32, numBodies) //paraxlint:allow(alloc)
		b.rank = make([]int8, numBodies)    //paraxlint:allow(alloc)
		b.act = make([]bool, numBodies)     //paraxlint:allow(alloc)
		b.slot = make([]int32, numBodies)   //paraxlint:allow(alloc)
	}
	b.parent = b.parent[:numBodies]
	b.rank = b.rank[:numBodies]
	b.act = b.act[:numBodies]
	b.slot = b.slot[:numBodies]
	b.findSteps = 0
	b.islands = b.islands[:0]
	for i := int32(0); i < int32(numBodies); i++ {
		b.parent[i] = i
		b.rank[i] = 0
		b.slot[i] = 0
		b.act[i] = active(i)
	}
	for _, e := range edges {
		if b.on(e.A) && b.on(e.B) {
			b.union(e.A, e.B)
		}
	}
	// Map roots to island slots.
	for i := int32(0); i < int32(numBodies); i++ {
		if !b.act[i] {
			continue
		}
		r := b.find(i)
		s := b.slot[r]
		if s == 0 {
			b.addIsland()
			s = int32(len(b.islands))
			b.slot[r] = s
		}
		is := &b.islands[s-1]
		is.Bodies = append(is.Bodies, i)
	}
	for _, e := range edges {
		var owner int32 = -1
		switch {
		case b.on(e.A):
			owner = e.A
		case b.on(e.B):
			owner = e.B
		default:
			continue
		}
		is := &b.islands[b.slot[b.find(owner)]-1]
		if e.IsContact {
			is.Contacts = append(is.Contacts, e.Ref)
		} else {
			is.Joints = append(is.Joints, e.Ref)
		}
		is.DOF += e.DOF
	}
	return b.islands, b.findSteps
}
