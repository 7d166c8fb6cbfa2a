package broadphase

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

// TestSAPTracksMotionOverManyFrames runs a random walk over many frames
// and checks the incremental sweep structure never diverges from the
// brute-force reference — the temporal-coherence correctness property.
func TestSAPTracksMotionOverManyFrames(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	gs := randomScene(r, 80, 10)
	sap := NewSweepAndPrune()
	bf := NewBruteForce()
	for frame := 0; frame < 60; frame++ {
		for _, g := range gs[1:] {
			g.Pos = g.Pos.Add(m3.V(
				(r.Float64()-0.5)*0.3,
				(r.Float64()-0.5)*0.3,
				(r.Float64()-0.5)*0.3,
			))
		}
		got := refreshPairs(sap, gs, nil)
		want := refreshPairs(bf, gs, nil)
		if !pairsEqual(got, want) {
			t.Fatalf("frame %d: SAP diverged (%d vs %d pairs)", frame, len(got), len(want))
		}
	}
}

// TestSAPHandlesEnableDisableChurn toggles geoms on and off between
// passes; the persistent order list must stay consistent.
func TestSAPHandlesEnableDisableChurn(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	gs := randomScene(r, 50, 8)
	sap := NewSweepAndPrune()
	bf := NewBruteForce()
	for frame := 0; frame < 40; frame++ {
		for _, g := range gs[1:] {
			if r.Float64() < 0.15 {
				g.Flags ^= geom.FlagDisabled
			}
		}
		got := refreshPairs(sap, gs, nil)
		want := refreshPairs(bf, gs, nil)
		if !pairsEqual(got, want) {
			t.Fatalf("frame %d: SAP wrong under enable/disable churn", frame)
		}
	}
}

// TestSAPHandlesGrowth adds geoms between passes (projectile spawning,
// blast volumes) without rebuilding.
func TestSAPHandlesGrowth(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	gs := randomScene(r, 20, 6)
	sap := NewSweepAndPrune()
	bf := NewBruteForce()
	for frame := 0; frame < 30; frame++ {
		id := len(gs)
		gs = append(gs, &geom.Geom{
			ID:    id,
			Shape: geom.Sphere{R: 0.3 + r.Float64()*0.4},
			Pos:   m3.V(r.Float64()*6, r.Float64()*6, r.Float64()*6),
			Rot:   m3.Ident,
			Body:  id,
		})
		got := refreshPairs(sap, gs, nil)
		want := refreshPairs(bf, gs, nil)
		if !pairsEqual(got, want) {
			t.Fatalf("frame %d: SAP wrong after geom insertion", frame)
		}
	}
}

// TestBroadphaseAgreementUnderMixedChurn drives every persistent
// implementation — full SAP, incremental SAP, spatial hash — through
// one long sequence mixing random walks, teleport storms and
// mass-detonation debris bursts, checking each emits exactly the
// brute-force pair list at every frame. This is the cross-check oracle
// for the incremental structure's swap-maintained pair set: any missed
// endpoint swap or stale set entry diverges here.
func TestBroadphaseAgreementUnderMixedChurn(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	gs := randomScene(r, 60, 10)
	impls := []Interface{NewSweepAndPrune(), NewIncrementalSAP(), NewSpatialHash()}
	names := []string{"sap", "incsap", "hash"}
	bf := NewBruteForce()
	for frame := 0; frame < 120; frame++ {
		switch {
		case frame%40 == 25:
			// Teleport storm: coherence collapses completely.
			for _, g := range gs[1:] {
				g.Pos = m3.V(r.Float64()*40-20, r.Float64()*40-20, r.Float64()*40-20)
			}
		case frame%30 == 15:
			// Mass detonation: a burst of debris spawns at one point.
			c := m3.V(r.Float64()*10, r.Float64()*10, r.Float64()*10)
			for i := 0; i < 10; i++ {
				id := len(gs)
				gs = append(gs, &geom.Geom{
					ID:    id,
					Shape: geom.Sphere{R: 0.15 + r.Float64()*0.2},
					Pos:   c.Add(m3.V(r.Float64()-0.5, r.Float64()-0.5, r.Float64()-0.5)),
					Rot:   m3.Ident,
					Body:  id,
				})
			}
		default:
			for _, g := range gs[1:] {
				g.Pos = g.Pos.Add(m3.V(
					(r.Float64()-0.5)*0.4,
					(r.Float64()-0.5)*0.4,
					(r.Float64()-0.5)*0.4,
				))
			}
		}
		want := refreshPairs(bf, gs, nil)
		for i, impl := range impls {
			got := refreshPairs(impl, gs, nil)
			if !pairsEqual(got, want) {
				t.Fatalf("frame %d: %s diverged (%d vs %d pairs)", frame, names[i], len(got), len(want))
			}
		}
	}
}

// TestHashCellSizeOverride checks explicit cell sizing still matches the
// reference.
func TestHashCellSizeOverride(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	gs := randomScene(r, 60, 8)
	want := refreshPairs(NewBruteForce(), gs, nil)
	for _, cell := range []float64{0.5, 1.5, 4.0} {
		sh := NewSpatialHash()
		sh.CellSize = cell
		got := refreshPairs(sh, gs, nil)
		if !pairsEqual(got, want) {
			t.Fatalf("cell=%v: hash wrong (%d vs %d pairs)", cell, len(got), len(want))
		}
	}
}

// TestMixedShapesBroadphase exercises the sweep over heterogeneous AABB
// sizes (tiny debris next to a huge terrain box).
func TestMixedShapesBroadphase(t *testing.T) {
	var gs []*geom.Geom
	add := func(s geom.Shape, pos m3.Vec, static bool) {
		g := &geom.Geom{ID: len(gs), Shape: s, Pos: pos, Rot: m3.Ident, Body: len(gs)}
		if static {
			g.Body = -1
			g.Flags = geom.FlagStatic
		}
		gs = append(gs, g)
	}
	hs := make([]float64, 64)
	add(geom.NewHeightField(8, 8, 5, 5, hs), m3.V(-20, 0, -20), true)
	for i := 0; i < 30; i++ {
		add(geom.Sphere{R: 0.05}, m3.V(float64(i%6), 0.02, float64(i/6)), false)
	}
	add(geom.Box{Half: m3.V(10, 0.5, 10)}, m3.V(0, -1, 0), false)
	got := refreshPairs(NewSweepAndPrune(), gs, nil)
	want := refreshPairs(NewBruteForce(), gs, nil)
	if !pairsEqual(got, want) {
		t.Fatalf("mixed-extent scene: %d vs %d pairs", len(got), len(want))
	}
	if len(got) == 0 {
		t.Fatal("expected overlaps in the mixed scene")
	}
}

// TestSAPMatchesReferenceSweep drives the flat sweep kernel and the
// pointer-walking loop it replaced (referenceSweep) through the same
// frames and requires identical output in full: the pair slice, every
// Stats field (OverlapTests is accumulated per run by the kernel and per
// candidate by the reference) and the persistent order. The scenes are
// the shape the kernel is built for and no other test here builds:
// static majority, collision groups shared between a static and a
// dynamic geom, several planes (one in a group, one not static),
// enable/disable churn, growth, a geom whose box goes NaN for a few
// frames, and a coordinate rotation that moves the sweep axis.
func TestSAPMatchesReferenceSweep(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		var gs []*geom.Geom
		// The cloud is long in X, so the sweep starts on axis 0.
		place := func() m3.Vec { return m3.V(r.Float64()*40, r.Float64()*4, r.Float64()*10) }
		add := func(s geom.Shape, pos m3.Vec, static bool, group int32) {
			g := &geom.Geom{ID: len(gs), Shape: s, Pos: pos, Rot: m3.Ident, Body: len(gs), Group: group}
			if static {
				g.Body, g.Flags = -1, geom.FlagStatic
			}
			gs = append(gs, g)
		}
		add(geom.Plane{Normal: m3.V(0, 1, 0)}, m3.Vec{}, true, 0)
		add(geom.Plane{Normal: m3.V(1, 0, 0), Offset: -1}, m3.Vec{}, true, 3)
		add(geom.Plane{Normal: m3.V(0, 0, 1), Offset: -1}, m3.Vec{}, false, 0)
		for i := 0; i < 170; i++ {
			add(geom.Box{Half: m3.V(0.3+r.Float64(), 0.3+r.Float64(), 0.3+r.Float64())}, place(), true, int32(r.Intn(4)))
		}
		for i := 0; i < 30; i++ {
			add(geom.Sphere{R: 0.3 + r.Float64()*0.6}, place(), false, int32(r.Intn(4)))
		}
		// A static and a dynamic geom of one group, overlapping: the
		// static-side walk must apply the group filter too.
		add(geom.Box{Half: m3.V(1, 1, 1)}, m3.V(20, 2, 5), true, 9)
		add(geom.Sphere{R: 1}, m3.V(20.5, 2, 5), false, 9)

		sap, ref := NewSweepAndPrune(), &referenceSweep{}
		var got, want []Pair
		var gotOrder, wantOrder []int32
		axes := map[int]bool{}
		pairsSeen, static := 0, 0
		for frame := 0; frame < 80; frame++ {
			if frame%25 == 24 {
				for _, g := range gs {
					g.Pos = m3.V(g.Pos.Z, g.Pos.X, g.Pos.Y)
				}
			}
			for _, g := range gs {
				if _, plane := g.Shape.(geom.Plane); plane {
					continue
				}
				if !g.Flags.Has(geom.FlagStatic) {
					g.Pos = g.Pos.Add(m3.V(r.Float64()-0.5, r.Float64()-0.5, r.Float64()-0.5))
				}
				if r.Float64() < 0.05 {
					g.Flags ^= geom.FlagDisabled
				}
			}
			nan := gs[len(gs)-1-frame%7]
			keep := nan.Pos
			if frame%20 >= 17 {
				nan.Pos.X = math.NaN()
			}
			if frame%3 == 0 {
				add(geom.Box{Half: m3.V(0.5, 0.5, 0.5)}, place(), true, int32(r.Intn(4)))
			}
			if frame%9 == 0 {
				add(geom.Sphere{R: 0.5}, place(), false, int32(r.Intn(4)))
			}

			got = refreshPairs(sap, gs, got[:0])
			want = refreshPairs(ref, gs, want[:0])
			nan.Pos = keep
			if !pairsEqual(got, want) {
				t.Fatalf("seed %d frame %d: kernel emitted %d pairs, reference %d", seed, frame, len(got), len(want))
			}
			if sap.Stats() != ref.Stats() {
				t.Fatalf("seed %d frame %d: stats %+v, reference %+v", seed, frame, sap.Stats(), ref.Stats())
			}
			gotOrder, wantOrder = sap.SaveOrder(gotOrder[:0]), ref.SaveOrder(wantOrder[:0])
			if !slices.Equal(gotOrder, wantOrder) {
				t.Fatalf("seed %d frame %d: persistent order differs from the reference", seed, frame)
			}
			axes[sap.axis] = true
			pairsSeen += len(got)
		}
		for _, g := range gs {
			if g.Flags.Has(geom.FlagStatic) {
				static++
			}
		}
		if static*5 < len(gs)*4 {
			t.Errorf("seed %d: %d of %d geoms static, want at least 80%%", seed, static, len(gs))
		}
		if len(axes) < 2 {
			t.Errorf("seed %d: sweep axis never moved (%v)", seed, axes)
		}
		if pairsSeen == 0 {
			t.Errorf("seed %d: no pairs in 80 frames", seed)
		}
	}
}
