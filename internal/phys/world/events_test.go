package world

import (
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

func TestExplosionChainReaction(t *testing.T) {
	// Two bombs: the first detonates on ground contact; its blast pushes
	// a ball into the second bomb, which then detonates too.
	w := groundWorld()
	_, bombA := w.AddBody(geom.Sphere{R: 0.3}, 1, m3.V(0, 0.29, 0), m3.QIdent, 0, 0)
	w.MarkExplosive(bombA, ExplosiveSpec{Radius: 3, Duration: 0.05, Impulse: 120})
	// The messenger ball sits between the bombs, off the ground so its
	// own ground contact doesn't matter.
	ball, _ := w.AddBody(geom.Sphere{R: 0.3}, 1, m3.V(1.5, 0.31, 0), m3.QIdent, 0, 0)
	_, bombB := w.AddBody(geom.Sphere{R: 0.3}, 1, m3.V(4.2, 0.6, 0), m3.QIdent, 0, 0)
	w.Bodies[w.Geoms[bombB].Body].Enabled = true
	// B floats (kinematic) so it only explodes when the ball arrives.
	w.Bodies[w.Geoms[bombB].Body].SetMass(0, m3.Mat{})
	w.MarkExplosive(bombB, ExplosiveSpec{Radius: 2, Duration: 0.05, Impulse: 50})

	total := 0
	for i := 0; i < 300 && total < 2; i++ {
		w.Step()
		total += w.Profile.Explosions
	}
	if total < 2 {
		t.Fatalf("chain reaction incomplete: %d explosions", total)
	}
	if !w.Bodies[ball].Valid() {
		t.Error("messenger ball state invalid")
	}
}

func TestDebrisParticipatesAfterFracture(t *testing.T) {
	// Once a prefractured brick shatters, its debris must generate pairs
	// and contacts of its own (it lands on the ground).
	w := groundWorld()
	_, pg := w.AddBody(geom.Box{Half: m3.V(0.5, 0.5, 0.5)}, 4, m3.V(0, 0.5, 0), m3.QIdent, 0, 0)
	var debris []int32
	for i := 0; i < 4; i++ {
		off := m3.V(float64(i%2)*0.5-0.25, 0.75, float64(i/2)*0.5-0.25)
		_, dg := w.AddBody(geom.Box{Half: m3.V(0.25, 0.25, 0.25)}, 1, off, m3.QIdent, geom.FlagDebris, 0)
		w.DisableBodyGeom(dg)
		debris = append(debris, dg)
	}
	w.RegisterFracture(pg, debris)
	_, bomb := w.AddBody(geom.Sphere{R: 0.2}, 1, m3.V(0.75, 0.19, 0), m3.QIdent, 0, 0)
	w.MarkExplosive(bomb, ExplosiveSpec{Radius: 2.5, Duration: 0.05, Impulse: 20})

	for i := 0; i < 10; i++ {
		w.Step()
	}
	if !w.Fractures[0].Broken {
		t.Fatal("brick did not shatter")
	}
	// Debris settles onto the ground under gravity.
	for i := 0; i < 300; i++ {
		w.Step()
	}
	for _, dg := range debris {
		b := w.Bodies[w.Geoms[dg].Body]
		if !b.Valid() {
			t.Fatal("debris state invalid")
		}
		if b.Pos.Y < 0.1 || b.Pos.Y > 2 {
			t.Errorf("debris did not settle plausibly: y=%v", b.Pos.Y)
		}
	}
}

func TestBenchmarkStyleDeterminism(t *testing.T) {
	// Two identical worlds stepped identically stay bit-identical —
	// required for reproducible workload capture.
	build := func() *World {
		w := groundWorld()
		for i := 0; i < 15; i++ {
			w.AddBody(geom.Box{Half: m3.V(0.3, 0.3, 0.3)}, 1,
				m3.V(float64(i%4)*0.7, 0.5+float64(i/4)*0.7, 0), m3.QIdent, 0, 0)
		}
		return w
	}
	w1, w2 := build(), build()
	for i := 0; i < 120; i++ {
		w1.Step()
		w2.Step()
	}
	for i := range w1.Bodies {
		if w1.Bodies[i].Pos != w2.Bodies[i].Pos {
			t.Fatalf("body %d diverged between identical runs", i)
		}
		if w1.Bodies[i].Rot != w2.Bodies[i].Rot {
			t.Fatalf("body %d orientation diverged", i)
		}
	}
}

func TestThreadCountChangeMidRun(t *testing.T) {
	// Resizing the worker pool between steps must be safe.
	w := groundWorld()
	for i := 0; i < 10; i++ {
		w.AddBody(geom.Sphere{R: 0.4}, 1, m3.V(float64(i)*0.7, 1, 0), m3.QIdent, 0, 0)
	}
	for _, th := range []int{1, 4, 2, 8, 1} {
		w.SetThreads(th)
		for i := 0; i < 5; i++ {
			w.Step()
		}
	}
	for _, b := range w.Bodies {
		if !b.Valid() {
			t.Fatal("invalid body after pool resizing")
		}
	}
}

func TestBlastDoesNotMoveStatics(t *testing.T) {
	w := groundWorld()
	s := w.AddStatic(geom.Box{Half: m3.V(0.5, 0.5, 0.5)}, m3.V(1.2, 0.5, 0), m3.QIdent)
	_, bomb := w.AddBody(geom.Sphere{R: 0.3}, 1, m3.V(0, 0.29, 0), m3.QIdent, 0, 0)
	w.MarkExplosive(bomb, ExplosiveSpec{Radius: 3, Duration: 0.05, Impulse: 100})
	before := w.Geoms[s].Pos
	for i := 0; i < 20; i++ {
		w.Step()
	}
	if w.Geoms[s].Pos != before {
		t.Error("blast displaced a static obstacle")
	}
}

func TestExplosiveOnlyDetonatesOnce(t *testing.T) {
	w := groundWorld()
	_, bomb := w.AddBody(geom.Sphere{R: 0.3}, 1, m3.V(0, 0.29, 0), m3.QIdent, 0, 0)
	w.MarkExplosive(bomb, ExplosiveSpec{Radius: 2, Duration: 0.05, Impulse: 10})
	total := 0
	for i := 0; i < 60; i++ {
		w.Step()
		total += w.Profile.Explosions
	}
	if total != 1 {
		t.Errorf("bomb detonated %d times", total)
	}
	// The consumed bomb's geom stays disabled.
	if w.Geoms[bomb].Enabled() {
		t.Error("exploded geom re-enabled")
	}
}
