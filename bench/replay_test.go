package main

import (
	"testing"

	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// The layer replay is only worth timing if it does the engine's work: on
// small scenes with joints, sleep and cloth, every replayed step must
// reproduce the counts World.Step put in its profile, and the three broad
// phases must agree on the pair count before and after the step.
func TestReplayReproducesProfileCounts(t *testing.T) {
	for _, cfg := range []sceneCfg{
		{Name: "Ragdoll", Scale: 0.1},
		{Name: "Deformable", Scale: 0.1},
		{Name: "Mix", Scale: 0.05},
	} {
		w, err := buildScene(cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		rp := newReplayer(newSpanLog(obs.NewTracer(), "test"))
		replayedSteps := 0
		for k := 0; k < 40; k++ {
			var clone *world.World
			if k%4 == 0 && len(w.Blasts) == 0 {
				if clone, err = w.Clone(); err != nil {
					t.Fatal(err)
				}
			}
			w.Step()
			if clone == nil || w.Profile.Explosions > 0 || w.Profile.FractureHit > 0 {
				continue
			}
			got, root, err := rp.replayStep(clone)
			if err != nil {
				t.Fatalf("%s step %d: %v", cfg.Name, k, err)
			}
			if want := countsOf(&w.Profile); got.counts != want {
				t.Errorf("%s step %d: replay %+v, World.Profile %+v", cfg.Name, k, got.counts, want)
			}
			if got.nextPairs != got.nextPairsInc {
				t.Errorf("%s step %d: after the step the full sweep finds %d pairs, the incremental one %d", cfg.Name, k, got.nextPairs, got.nextPairsInc)
			}
			if got.rowUpdates != got.counts.Rows*w.Solver.Iterations {
				t.Errorf("%s step %d: %d row updates for %d rows", cfg.Name, k, got.rowUpdates, got.counts.Rows)
			}
			self := rp.log.selfTimes(root)
			if _, ok := self[spanSolve]; !ok && got.counts.Islands > 0 {
				t.Errorf("%s step %d: no %s span under the replayed step: %v", cfg.Name, k, spanSolve, self)
			}
			replayedSteps++
		}
		if replayedSteps < 5 {
			t.Errorf("%s: only %d steps were replayed", cfg.Name, replayedSteps)
		}
	}
}

// A clone that the engine steps and one that the replay steps must end in
// the same state: same poses, so the same snapshot.
func TestReplayLeavesTheEnginesState(t *testing.T) {
	w, err := buildScene(sceneCfg{Name: "Ragdoll", Scale: 0.1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		w.Step()
	}
	clone, err := w.Clone()
	if err != nil {
		t.Fatal(err)
	}
	w.Step()
	if _, _, err := newReplayer(newSpanLog(obs.NewTracer(), "test")).replayStep(clone); err != nil {
		t.Fatal(err)
	}
	for i, b := range w.Bodies {
		c := clone.Bodies[i]
		if b.Pos != c.Pos || b.Rot != c.Rot || b.LinVel != c.LinVel || b.AngVel != c.AngVel {
			t.Fatalf("body %d: engine %+v %+v, replay %+v %+v", i, b.Pos, b.LinVel, c.Pos, c.LinVel)
		}
	}
}
