package world

import (
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

func buildStack(warm bool, iters int) *World {
	w := New()
	w.WarmStart = warm
	w.Solver.Iterations = iters
	w.AddStatic(geom.Plane{Normal: m3.V(0, 1, 0)}, m3.Zero, m3.QIdent)
	for i := 0; i < 8; i++ {
		w.AddBody(geom.Box{Half: m3.V(0.5, 0.5, 0.5)}, 10,
			m3.V(0, 0.5+float64(i)*1.0, 0), m3.QIdent, 0, 0)
	}
	return w
}

func settledPenetration(w *World) float64 {
	for i := 0; i < 200; i++ {
		w.Step()
	}
	return w.Profile.Narrow.DeepestDepth
}

// TestWarmStartImprovesConvergence runs abl-warmstart's stack (8 boxes,
// 200 steps) at each iteration count the ablation sweeps: the deepest
// penetration with warm starting is never deeper than without it, and at
// few iterations (5) it is at most half.
func TestWarmStartImprovesConvergence(t *testing.T) {
	for _, iters := range []int{2, 5, 10, 20} {
		cold := settledPenetration(buildStack(false, iters))
		warm := settledPenetration(buildStack(true, iters))
		t.Logf("%2d iterations: cold %.2f mm, warm %.2f mm", iters, cold*1e3, warm*1e3)
		if warm > cold {
			t.Errorf("%d iterations: warm start penetrates %v, deeper than cold start's %v", iters, warm, cold)
		}
		if iters == 5 && warm > cold*0.5 {
			t.Errorf("warm starting should at least halve residual penetration at 5 iterations: cold %v warm %v", cold, warm)
		}
	}
	// And the stack must remain stable (no launch).
	w := buildStack(true, 5)
	for i := 0; i < 300; i++ {
		w.Step()
	}
	for bi, b := range w.Bodies {
		if !b.Valid() || b.Pos.Y > 9 {
			t.Fatalf("warm-started stack unstable: body %d at %v", bi, b.Pos)
		}
	}
}
