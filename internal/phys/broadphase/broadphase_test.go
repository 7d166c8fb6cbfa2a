package broadphase

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

// randomScene builds n sphere geoms scattered in a cube of the given
// side, with a ground plane.
func randomScene(r *rand.Rand, n int, side float64) []*geom.Geom {
	var gs []*geom.Geom
	gs = append(gs, &geom.Geom{
		ID:    0,
		Shape: geom.Plane{Normal: m3.V(0, 1, 0), Offset: 0},
		Rot:   m3.Ident,
		Body:  -1,
		Flags: geom.FlagStatic,
	})
	for i := 1; i <= n; i++ {
		gs = append(gs, &geom.Geom{
			ID:    i,
			Shape: geom.Sphere{R: 0.3 + r.Float64()*0.5},
			Pos:   m3.V(r.Float64()*side, r.Float64()*side, r.Float64()*side),
			Rot:   m3.Ident,
			Body:  i - 1,
		})
	}
	return gs
}

// refreshPairs is one broad-phase pass as World.Step runs it: refresh
// every enabled geom's AABB, then call the implementation's pair method.
func refreshPairs(bp Interface, gs []*geom.Geom, dst []Pair) []Pair {
	refreshBoxes(gs)
	return bp.PairsPrerefreshed(gs, dst)
}

// refreshBoxes is World.Step's AABB refresh of every enabled geom.
func refreshBoxes(gs []*geom.Geom) {
	for _, g := range gs {
		if g.Enabled() {
			g.UpdateAABB()
		}
	}
}

func pairsEqual(a, b []Pair) bool {
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

func TestSAPMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		gs := randomScene(r, 60, 8)
		sap := NewSweepAndPrune()
		got := refreshPairs(sap, gs, nil)
		want := refreshPairs(NewBruteForce(), gs, nil)
		if !pairsEqual(got, want) {
			t.Fatalf("trial %d: SAP %d pairs, brute force %d pairs", trial, len(got), len(want))
		}
	}
}

func TestSpatialHashMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		gs := randomScene(r, 60, 8)
		sh := NewSpatialHash()
		got := refreshPairs(sh, gs, nil)
		want := refreshPairs(NewBruteForce(), gs, nil)
		if !pairsEqual(got, want) {
			t.Fatalf("trial %d: hash %d pairs, brute force %d pairs", trial, len(got), len(want))
		}
	}
}

func TestSAPTemporalCoherence(t *testing.T) {
	// Moving the scene slightly between passes must keep results correct
	// and should sort cheaply the second time.
	r := rand.New(rand.NewSource(13))
	gs := randomScene(r, 100, 10)
	sap := NewSweepAndPrune()
	refreshPairs(sap, gs, nil)
	firstSort := sap.Stats().SortOps
	for _, g := range gs[1:] {
		g.Pos = g.Pos.Add(m3.V(r.Float64()*0.01, r.Float64()*0.01, 0))
	}
	got := refreshPairs(sap, gs, nil)
	want := refreshPairs(NewBruteForce(), gs, nil)
	if !pairsEqual(got, want) {
		t.Fatal("SAP wrong after incremental update")
	}
	secondSort := sap.Stats().SortOps
	if secondSort > firstSort {
		t.Errorf("expected cheaper incremental sort: first %d, second %d", firstSort, secondSort)
	}
}

func TestDisabledGeomsSkipped(t *testing.T) {
	a := &geom.Geom{ID: 0, Shape: geom.Sphere{R: 1}, Rot: m3.Ident, Body: 0}
	b := &geom.Geom{ID: 1, Shape: geom.Sphere{R: 1}, Rot: m3.Ident, Body: 1}
	c := &geom.Geom{ID: 2, Shape: geom.Sphere{R: 1}, Rot: m3.Ident, Body: 2, Flags: geom.FlagDisabled}
	gs := []*geom.Geom{a, b, c}
	for _, bp := range []Interface{NewSweepAndPrune(), NewSpatialHash(), NewBruteForce()} {
		pairs := refreshPairs(bp, gs, nil)
		if len(pairs) != 1 || pairs[0] != (Pair{A: 0, B: 1}) {
			t.Errorf("%T: pairs = %v, want [{0 1}]", bp, pairs)
		}
	}
}

func TestGroupFiltering(t *testing.T) {
	a := &geom.Geom{ID: 0, Shape: geom.Sphere{R: 1}, Rot: m3.Ident, Body: 0, Group: 5}
	b := &geom.Geom{ID: 1, Shape: geom.Sphere{R: 1}, Rot: m3.Ident, Body: 1, Group: 5}
	gs := []*geom.Geom{a, b}
	for _, bp := range []Interface{NewSweepAndPrune(), NewSpatialHash()} {
		if pairs := refreshPairs(bp, gs, nil); len(pairs) != 0 {
			t.Errorf("%T: same-group pair not filtered: %v", bp, pairs)
		}
	}
}

func TestPlanePairsWithAllDynamics(t *testing.T) {
	gs := []*geom.Geom{
		{ID: 0, Shape: geom.Plane{Normal: m3.V(0, 1, 0)}, Rot: m3.Ident, Body: -1, Flags: geom.FlagStatic},
		{ID: 1, Shape: geom.Sphere{R: 1}, Pos: m3.V(0, 100, 0), Rot: m3.Ident, Body: 0},
		{ID: 2, Shape: geom.Sphere{R: 1}, Pos: m3.V(50, 3, -20), Rot: m3.Ident, Body: 1},
	}
	sap := NewSweepAndPrune()
	pairs := refreshPairs(sap, gs, nil)
	if len(pairs) != 2 {
		t.Fatalf("plane should pair with both spheres, got %v", pairs)
	}
}

func TestStatsPopulated(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	gs := randomScene(r, 30, 5)
	sap := NewSweepAndPrune()
	pairs := refreshPairs(sap, gs, nil)
	st := sap.Stats()
	if st.Geoms != 0 || st.AABBUpdates != 0 {
		t.Errorf("geoms/updates = %d/%d, want 0/0: the refresh is the caller's to count", st.Geoms, st.AABBUpdates)
	}
	if st.OverlapTests == 0 {
		t.Error("no overlap tests recorded")
	}
	if st.PairsOut != len(pairs) {
		t.Errorf("PairsOut = %d, want %d", st.PairsOut, len(pairs))
	}
}

func TestEmptyWorld(t *testing.T) {
	for _, bp := range []Interface{NewSweepAndPrune(), NewSpatialHash(), NewBruteForce()} {
		if pairs := refreshPairs(bp, nil, nil); len(pairs) != 0 {
			t.Errorf("%T: empty world produced pairs", bp)
		}
	}
}

func BenchmarkSAP500(b *testing.B) {
	r := rand.New(rand.NewSource(15))
	gs := randomScene(r, 500, 20)
	sap := NewSweepAndPrune()
	var buf []Pair
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = refreshPairs(sap, gs, buf[:0])
	}
}

func BenchmarkSpatialHash500(b *testing.B) {
	r := rand.New(rand.NewSource(15))
	gs := randomScene(r, 500, 20)
	sh := NewSpatialHash()
	var buf []Pair
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = refreshPairs(sh, gs, buf[:0])
	}
}

// A pass over an unchanged scene must report zero sort work: SortOps
// counts actual exchanges, and an already-sorted order needs none.
// (Regression: the counter used to tick once per element even when the
// order held, inflating the serial-phase work stream.)
func TestSAPSortOpsZeroWhenSorted(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	gs := randomScene(r, 50, 8)
	sap := NewSweepAndPrune()
	refreshPairs(sap, gs, nil)
	refreshPairs(sap, gs, nil) // nothing moved
	if ops := sap.Stats().SortOps; ops != 0 {
		t.Errorf("static scene re-pass did %d sort ops, want 0", ops)
	}
}

// Steady-state passes over a coherent scene must not allocate: both
// algorithms keep membership stamps, entry lists and dedup tables
// across passes.
func TestBroadphaseSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	gs := randomScene(r, 80, 9)
	for _, tc := range []struct {
		name string
		bp   Interface
	}{
		{"sap", NewSweepAndPrune()},
		{"hash", NewSpatialHash()},
	} {
		dst := refreshPairs(tc.bp, gs, nil)
		for i := 0; i < 5; i++ { // warm capacities
			dst = refreshPairs(tc.bp, gs, dst[:0])
		}
		allocs := testing.AllocsPerRun(20, func() {
			dst = refreshPairs(tc.bp, gs, dst[:0])
		})
		if allocs > 0 {
			t.Errorf("%s: steady-state pass allocates %v/op, want 0", tc.name, allocs)
		}
	}
}

// referenceSweep is SweepAndPrune as it was before the sweep moved onto
// flat per-pass copies: the same live-list refresh, axis choice,
// insertion sort and closed-interval sweep, reading every key and every
// filter input through the geom pointers and counting one OverlapTests
// per visited candidate. It exists only as the oracle for
// TestSAPMatchesReferenceSweep.
type referenceSweep struct {
	order     []int32
	axis      int
	stats     Stats
	mark      []uint32
	gen       uint32
	unbounded []int32
}

func (s *referenceSweep) Stats() Stats { return s.stats }

func (s *referenceSweep) SaveOrder(dst []int32) []int32 { return append(dst, s.order...) }

func (s *referenceSweep) PairsPrerefreshed(geoms []*geom.Geom, dst []Pair) []Pair {
	s.stats = Stats{}
	s.gen++
	if len(s.mark) < len(geoms) {
		grown := make([]uint32, len(geoms))
		copy(grown, s.mark)
		s.mark = grown
	}
	unbounded := s.unbounded[:0]
	live := s.order[:0]
	for _, id := range s.order {
		if int(id) < len(geoms) && geoms[id].Enabled() && geoms[id].Shape.Kind() != geom.KindPlane {
			live = append(live, id)
			s.mark[id] = s.gen
		}
	}
	for _, g := range geoms {
		if !g.Enabled() {
			continue
		}
		if g.Shape.Kind() == geom.KindPlane {
			unbounded = append(unbounded, int32(g.ID))
			continue
		}
		if s.mark[g.ID] != s.gen {
			live = append(live, int32(g.ID))
		}
	}
	s.order = live
	s.unbounded = unbounded
	s.axis = bestAxis(geoms, s.order)

	axis := s.axis
	for i := 1; i < len(s.order); i++ {
		v := s.order[i]
		kv := geoms[v].Box.Min.Comp(axis)
		j := i - 1
		for j >= 0 && geoms[s.order[j]].Box.Min.Comp(axis) > kv {
			s.order[j+1] = s.order[j]
			j--
			s.stats.SortOps++
		}
		s.order[j+1] = v
	}

	for i := 0; i < len(s.order); i++ {
		a := geoms[s.order[i]]
		amax := a.Box.Max.Comp(s.axis)
		for j := i + 1; j < len(s.order); j++ {
			b := geoms[s.order[j]]
			if b.Box.Min.Comp(s.axis) > amax {
				break
			}
			s.stats.OverlapTests++
			if shouldPair(a, b) {
				dst = appendPair(dst, int32(a.ID), int32(b.ID))
				s.stats.PairsOut++
			}
		}
	}
	for _, pid := range unbounded {
		p := geoms[pid]
		for _, id := range s.order {
			g := geoms[id]
			if g.Flags.Has(geom.FlagStatic) {
				continue
			}
			s.stats.OverlapTests++
			if geom.ShouldCollide(p, g) {
				dst = appendPair(dst, pid, id)
				s.stats.PairsOut++
			}
		}
	}
	slices.SortFunc(dst, cmpPair)
	return dst
}

// cmpPair is the canonical (A, B) pair order as a comparison: the order
// the production counting sort (pairSort) must reproduce, and the oracle
// it is tested against.
func cmpPair(a, b Pair) int {
	if a.A != b.A {
		return int(a.A) - int(b.A)
	}
	return int(a.B) - int(b.B)
}
