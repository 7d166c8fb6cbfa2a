package island

import (
	"fmt"
	"math/rand"
	"testing"
)

func allActive(int32) bool { return true }

// build runs one Build through a fresh Builder.
func build(numBodies int, edges []Edge, active func(int32) bool) ([]Island, int) {
	var b Builder
	return b.Build(numBodies, edges, active)
}

func TestDSUBasics(t *testing.T) {
	var d Builder
	d.reset(5)
	if d.find(0) == d.find(1) {
		t.Fatal("fresh elements should be in distinct sets")
	}
	d.union(0, 1)
	d.union(1, 2)
	if d.find(0) != d.find(2) {
		t.Error("transitive union failed")
	}
	if d.find(3) == d.find(0) {
		t.Error("unrelated element merged")
	}
	d.union(0, 0) // self-union is a no-op
	if d.find(0) != d.find(2) {
		t.Error("self-union corrupted structure")
	}
}

func TestDSUMatchesNaive(t *testing.T) {
	// Property: DSU components match a naive reachability computation.
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 40
		var d Builder
		d.reset(n)
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		for e := 0; e < 50; e++ {
			a, b := int32(r.Intn(n)), int32(r.Intn(n))
			d.union(a, b)
			adj[a][b], adj[b][a] = true, true
		}
		// Floyd-Warshall style closure.
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				if !adj[i][k] {
					continue
				}
				for j := 0; j < n; j++ {
					if adj[k][j] {
						adj[i][j] = true
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				reach := i == j || adj[i][j]
				same := d.find(int32(i)) == d.find(int32(j))
				if reach != same {
					t.Fatalf("trial %d: dsu(%d,%d)=%v reach=%v", trial, i, j, same, reach)
				}
			}
		}
	}
}

func TestBuildSimple(t *testing.T) {
	// 0-1 joined, 2 alone, 3-4 joined through a contact.
	edges := []Edge{
		{A: 0, B: 1, Ref: 0, DOF: 3},
		{A: 3, B: 4, Ref: 0, IsContact: true, DOF: 3},
	}
	islands, _ := build(5, edges, allActive)
	if len(islands) != 3 {
		t.Fatalf("want 3 islands, got %d", len(islands))
	}
	sizes := map[int]int{}
	for _, is := range islands {
		sizes[len(is.Bodies)]++
	}
	if sizes[2] != 2 || sizes[1] != 1 {
		t.Errorf("island sizes wrong: %+v", islands)
	}
}

func TestBuildWorldEdges(t *testing.T) {
	// Contacts with the static world (-1) do not merge bodies but do
	// attach to the dynamic body's island.
	edges := []Edge{
		{A: 0, B: -1, Ref: 7, IsContact: true, DOF: 3},
		{A: 1, B: -1, Ref: 8, IsContact: true, DOF: 3},
	}
	islands, _ := build(2, edges, allActive)
	if len(islands) != 2 {
		t.Fatalf("want 2 islands, got %d", len(islands))
	}
	for _, is := range islands {
		if len(is.Contacts) != 1 || is.DOF != 3 {
			t.Errorf("island missing its world contact: %+v", is)
		}
	}
}

func TestBuildInactiveBodies(t *testing.T) {
	edges := []Edge{
		{A: 0, B: 1, Ref: 0, DOF: 3},
		{A: 1, B: 2, Ref: 1, DOF: 3},
	}
	// Body 1 inactive: 0 and 2 should stay separate; edges touching only
	// inactive endpoints keep their active side.
	islands, _ := build(3, edges, func(i int32) bool { return i != 1 })
	if len(islands) != 2 {
		t.Fatalf("want 2 islands, got %d", len(islands))
	}
	// Edge {0,1}: active endpoint 0 -> island of 0 gets joint 0.
	for _, is := range islands {
		if len(is.Bodies) != 1 {
			t.Errorf("island should contain exactly one body: %+v", is)
		}
		if len(is.Joints) != 1 {
			t.Errorf("each island should inherit one dangling joint: %+v", is)
		}
	}
}

func TestBuildDOFAccumulation(t *testing.T) {
	edges := []Edge{
		{A: 0, B: 1, Ref: 0, DOF: 5},
		{A: 1, B: 2, Ref: 1, DOF: 3},
		{A: 2, B: 0, Ref: 0, IsContact: true, DOF: 9},
	}
	islands, _ := build(3, edges, allActive)
	if len(islands) != 1 {
		t.Fatalf("want 1 island, got %d", len(islands))
	}
	if islands[0].DOF != 17 {
		t.Errorf("DOF = %d, want 17", islands[0].DOF)
	}
	if len(islands[0].Joints) != 2 || len(islands[0].Contacts) != 1 {
		t.Errorf("constraint partition wrong: %+v", islands[0])
	}
}

func TestBuildChainIsOneIsland(t *testing.T) {
	const n = 100
	var edges []Edge
	for i := int32(0); i < n-1; i++ {
		edges = append(edges, Edge{A: i, B: i + 1, Ref: i, DOF: 3})
	}
	islands, _ := build(n, edges, allActive)
	if len(islands) != 1 {
		t.Fatalf("chain should form one island, got %d", len(islands))
	}
	if len(islands[0].Bodies) != n {
		t.Errorf("island has %d bodies, want %d", len(islands[0].Bodies), n)
	}
}

func TestBuildEmpty(t *testing.T) {
	if islands, _ := build(0, nil, allActive); len(islands) != 0 {
		t.Errorf("empty world produced islands: %v", islands)
	}
}

// sameIslands fails the test unless a reused Builder's result matches a
// fresh Builder's on the same input: members, DOF and the find counter.
func sameIslands(t *testing.T, label string, got []Island, gotSteps int, numBodies int, edges []Edge, active func(int32) bool) {
	t.Helper()
	want, wantSteps := build(numBodies, edges, active)
	if gotSteps != wantSteps {
		t.Errorf("%s: findSteps %d, want %d", label, gotSteps, wantSteps)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d islands, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !equalI32(got[i].Bodies, want[i].Bodies) ||
			!equalI32(got[i].Joints, want[i].Joints) ||
			!equalI32(got[i].Contacts, want[i].Contacts) ||
			got[i].DOF != want[i].DOF {
			t.Errorf("%s island %d: got %+v want %+v", label, i, got[i], want[i])
		}
	}
}

// A reused Builder must match a fresh one and, once grown, rebuild
// without allocating.
func TestBuilderReuseMatchesBuild(t *testing.T) {
	edgesA := []Edge{
		{A: 0, B: 1, Ref: 0, IsContact: true, DOF: 3},
		{A: 2, B: 3, Ref: 1, DOF: 5},
		{A: 3, B: -1, Ref: 2, IsContact: true, DOF: 3},
	}
	edgesB := []Edge{
		{A: 0, B: 3, Ref: 0, DOF: 6},
		{A: 1, B: 2, Ref: 1, IsContact: true, DOF: 3},
	}
	var b Builder
	for trial, edges := range [][]Edge{edgesA, edgesB, edgesA} {
		got, gotSteps := b.Build(5, edges, allActive)
		sameIslands(t, fmt.Sprintf("trial %d", trial), got, gotSteps, 5, edges, allActive)
	}
	allocs := testing.AllocsPerRun(20, func() {
		b.Build(5, edgesA, allActive)
	})
	if allocs > 0 {
		t.Errorf("grown Builder allocates %v/op, want 0", allocs)
	}
}

// One Builder rebuilt across changing topologies — islands merging,
// splitting, the scene shrinking and growing, bodies going inactive — must
// match a fresh Builder every time, and allocate nothing once its flat
// arrays have seen the largest input. Island k's members move between
// rebuilds here, which is what per-island member storage reallocated for.
func TestBuilderChangingTopologies(t *testing.T) {
	chain := func(n int32) []Edge { // one island of n bodies
		var edges []Edge
		for i := int32(0); i+1 < n; i++ {
			edges = append(edges, Edge{A: i, B: i + 1, Ref: i, DOF: 3})
		}
		return edges
	}
	pairs := func(n int32) []Edge { // n/2 two-body islands, each resting on the world
		var edges []Edge
		for i := int32(0); i+1 < n; i += 2 {
			edges = append(edges,
				Edge{A: i, B: i + 1, Ref: i, IsContact: true, DOF: 3},
				Edge{A: -1, B: i, Ref: i + 1, IsContact: true, DOF: 3})
		}
		return edges
	}
	oddOff := func(i int32) bool { return i%2 == 0 }
	steps := []struct {
		name      string
		numBodies int
		edges     []Edge
		active    func(int32) bool
	}{
		{"largest", 64, append(chain(64), pairs(64)...), allActive},
		{"split", 64, pairs(64), allActive},
		{"merge", 64, chain(64), allActive},
		{"shrink", 7, chain(7), allActive},
		{"grow", 40, append(pairs(40), Edge{A: 1, B: 38, Ref: 99, DOF: 5}), allActive},
		{"inactive", 64, chain(64), oddOff},
		{"empty", 0, nil, allActive},
		{"singletons", 64, nil, allActive},
	}
	var b Builder
	for round := 0; round < 2; round++ {
		for _, st := range steps {
			got, gotSteps := b.Build(st.numBodies, st.edges, st.active)
			sameIslands(t, st.name, got, gotSteps, st.numBodies, st.edges, st.active)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, st := range steps {
			b.Build(st.numBodies, st.edges, st.active)
		}
	})
	if allocs > 0 {
		t.Errorf("Builder that has seen its largest input allocates %v per pass over the topologies, want 0", allocs)
	}
}

func equalI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
