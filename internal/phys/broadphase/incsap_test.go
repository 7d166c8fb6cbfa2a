package broadphase

import (
	"math/rand"
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

// oracles returns a fresh incremental SAP plus the three reference
// implementations it must agree with pair-for-pair.
func oracles() (inc *IncrementalSAP, refs []Interface) {
	return NewIncrementalSAP(), []Interface{
		NewSweepAndPrune(), NewSpatialHash(), NewBruteForce(),
	}
}

// checkAgainst runs every implementation on the same scene and fails if
// any pair list differs from the incremental one — the cross-check
// oracle required by the determinism contract: incsap output must be
// byte-identical to the full sweep (and therefore to every oracle).
func checkAgainst(t *testing.T, frame int, gs []*geom.Geom, inc *IncrementalSAP, refs []Interface) {
	t.Helper()
	got := refreshPairs(inc, gs, nil)
	for _, ref := range refs {
		want := refreshPairs(ref, gs, nil)
		if !pairsEqual(got, want) {
			t.Fatalf("frame %d: incsap diverged from %T (%d vs %d pairs)",
				frame, ref, len(got), len(want))
		}
	}
}

// TestIncSAPMatchesOraclesOverMotion drives a long random walk and
// cross-checks the persistent pair set against full SAP, the spatial
// hash, and brute force every frame.
func TestIncSAPMatchesOraclesOverMotion(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	gs := randomScene(r, 80, 10)
	inc, refs := oracles()
	for frame := 0; frame < 80; frame++ {
		for _, g := range gs[1:] {
			g.Pos = g.Pos.Add(m3.V(
				(r.Float64()-0.5)*0.3,
				(r.Float64()-0.5)*0.3,
				(r.Float64()-0.5)*0.3,
			))
		}
		checkAgainst(t, frame, gs, inc, refs)
	}
}

// TestIncSAPTeleportStorm scrambles every position each frame —
// coherence collapses completely, the swap budget trips, and the
// full-rebuild fallback must keep the output exact.
func TestIncSAPTeleportStorm(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	gs := randomScene(r, 60, 8)
	inc, refs := oracles()
	sawRebuild := false
	for frame := 0; frame < 30; frame++ {
		for _, g := range gs[1:] {
			g.Pos = m3.V(r.Float64()*8, r.Float64()*8, r.Float64()*8)
		}
		checkAgainst(t, frame, gs, inc, refs)
		if frame > 0 && inc.Stats().Rebuilds > 0 {
			sawRebuild = true
		}
	}
	if !sawRebuild {
		t.Error("teleport storm never tripped the coherence-collapse fallback")
	}
}

// TestIncSAPDetonationChurn disables clusters of geoms and spawns new
// debris between passes — the departure/arrival bookkeeping (endpoint
// compaction, set purge, end-append) must stay exact under churn.
func TestIncSAPDetonationChurn(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	gs := randomScene(r, 50, 8)
	inc, refs := oracles()
	for frame := 0; frame < 40; frame++ {
		for _, g := range gs[1:] {
			g.Pos = g.Pos.Add(m3.V((r.Float64()-0.5)*0.2, (r.Float64()-0.5)*0.2, 0))
			if r.Float64() < 0.1 {
				g.Flags ^= geom.FlagDisabled
			}
		}
		if frame%5 == 0 { // debris burst
			for k := 0; k < 4; k++ {
				id := len(gs)
				gs = append(gs, &geom.Geom{
					ID:    id,
					Shape: geom.Sphere{R: 0.2 + r.Float64()*0.3},
					Pos:   m3.V(r.Float64()*8, r.Float64()*8, r.Float64()*8),
					Rot:   m3.Ident,
					Body:  id,
				})
			}
		}
		checkAgainst(t, frame, gs, inc, refs)
	}
}

// TestIncSAPCheaperWhenCoherent is the point of the structure: a pass
// over a nearly-still scene must do far less sort work than the first
// (rebuild) pass, and an unchanged scene must report zero exchanges.
func TestIncSAPCheaperWhenCoherent(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	gs := randomScene(r, 100, 10)
	inc := NewIncrementalSAP()
	refreshPairs(inc, gs, nil)
	if inc.Stats().Rebuilds != 1 {
		t.Fatalf("first pass rebuilds = %d, want 1", inc.Stats().Rebuilds)
	}
	refreshPairs(inc, gs, nil) // nothing moved
	if st := inc.Stats(); st.SortOps != 0 || st.Rebuilds != 0 {
		t.Errorf("static re-pass: sortOps=%d rebuilds=%d, want 0/0", st.SortOps, st.Rebuilds)
	}
	for _, g := range gs[1:] {
		g.Pos = g.Pos.Add(m3.V(r.Float64()*0.01, r.Float64()*0.01, 0))
	}
	got := refreshPairs(inc, gs, nil)
	if st := inc.Stats(); st.Rebuilds != 0 || st.SortOps > 2*len(gs) {
		t.Errorf("coherent drift: sortOps=%d rebuilds=%d, want few swaps and no rebuild",
			st.SortOps, st.Rebuilds)
	}
	if want := refreshPairs(NewBruteForce(), gs, nil); !pairsEqual(got, want) {
		t.Fatal("incremental pass diverged after drift")
	}
}

// TestIncSAPPrerefreshedMatches checks the pair method against the
// reference when boxes are already fresh, and that it leaves the
// refresh counters to the caller.
func TestIncSAPPrerefreshedMatches(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	gs := randomScene(r, 40, 7)
	for _, g := range gs {
		g.UpdateAABB()
	}
	inc := NewIncrementalSAP()
	got := inc.PairsPrerefreshed(gs, nil)
	if st := inc.Stats(); st.Geoms != 0 || st.AABBUpdates != 0 {
		t.Errorf("prerefreshed pass counted geoms=%d updates=%d, want 0/0", st.Geoms, st.AABBUpdates)
	}
	if want := refreshPairs(NewBruteForce(), gs, nil); !pairsEqual(got, want) {
		t.Fatal("prerefreshed pairs diverged from reference")
	}
}

// TestIncSAPSteadyStateAllocs: passes over a coherent scene must not
// allocate once capacities are warm (the pair-set map reuses buckets
// across the delete/insert churn of sliding contacts).
func TestIncSAPSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	gs := randomScene(r, 80, 9)
	inc := NewIncrementalSAP()
	dst := refreshPairs(inc, gs, nil)
	for i := 0; i < 5; i++ { // warm capacities
		for _, g := range gs[1:] {
			g.Pos = g.Pos.Add(m3.V(r.Float64()*0.01, 0, 0))
		}
		dst = refreshPairs(inc, gs, dst[:0])
	}
	allocs := testing.AllocsPerRun(20, func() {
		dst = refreshPairs(inc, gs, dst[:0])
	})
	if allocs > 0 {
		t.Errorf("incsap steady-state pass allocates %v/op, want 0", allocs)
	}
}

func BenchmarkIncSAP500(b *testing.B) {
	r := rand.New(rand.NewSource(15))
	gs := randomScene(r, 500, 20)
	inc := NewIncrementalSAP()
	var buf []Pair
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = refreshPairs(inc, gs, buf[:0])
	}
}
