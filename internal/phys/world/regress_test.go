package world

import (
	"math"
	"reflect"
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/broadphase"
	"github.com/parallax-arch/parallax/internal/phys/cloth"
	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/joint"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

// TestShatterDebrisVelocity pins down the shatter contract: debris
// spawns with the parent's linear velocity plus a unit-radial kick of
// magnitude 2, zero angular velocity, awake, and with cleared force
// accumulators — whatever junk state the pieces held before they were
// disabled.
func TestShatterDebrisVelocity(t *testing.T) {
	w := New() // no ground: nothing else touches the velocities
	pb, pg := w.AddBody(geom.Box{Half: m3.V(0.5, 0.5, 0.5)}, 4, m3.V(0, 5, 0), m3.QIdent, 0, 0)
	w.Bodies[pb].LinVel = m3.V(3, 0, -1)
	var debris []int32
	for i := 0; i < 4; i++ {
		off := m3.V(float64(i%2)-0.5, 5, float64(i/2)-0.5)
		db, dg := w.AddBody(geom.Box{Half: m3.V(0.25, 0.25, 0.25)}, 1, off, m3.QIdent, geom.FlagDebris, 0)
		// Poison the disabled pieces with stale state the fix must clear.
		w.Bodies[db].LinVel = m3.V(99, 99, 99)
		w.Bodies[db].AngVel = m3.V(7, -7, 7)
		w.Bodies[db].Force = m3.V(1e6, 0, 0)
		w.Bodies[db].Torque = m3.V(0, 1e6, 0)
		w.Bodies[db].Asleep = true
		w.DisableBodyGeom(dg)
		debris = append(debris, dg)
	}
	w.RegisterFracture(pg, debris)

	blastPos := m3.V(0, 4, 0)
	w.shatter(0, blastPos, &w.Profile)

	parentVel := m3.V(3, 0, -1)
	for _, dg := range debris {
		db := w.Bodies[w.Geoms[dg].Body]
		if !db.Enabled || db.Asleep {
			t.Fatalf("debris %d not awake/enabled", dg)
		}
		if db.Force != m3.Zero || db.Torque != m3.Zero {
			t.Errorf("debris %d spawned with stale accumulators: F=%v T=%v", dg, db.Force, db.Torque)
		}
		if db.AngVel != m3.Zero {
			t.Errorf("debris %d spawned spinning: %v", dg, db.AngVel)
		}
		kick := db.LinVel.Sub(parentVel)
		if math.Abs(kick.Len()-2.0) > 1e-9 {
			t.Errorf("debris %d kick magnitude = %v, want 2", dg, kick.Len())
		}
		radial := db.Pos.Sub(blastPos).Norm()
		if kick.Sub(radial.Scale(2)).Len() > 1e-9 {
			t.Errorf("debris %d kick not radial from blast: kick=%v radial=%v", dg, kick, radial)
		}
	}
}

// TestSimultaneousBlastsOneImpulseEach overlaps two active blast volumes
// on the same body and checks the body receives exactly one impulse from
// each blast — the geom-id blast index must route each hit to its own
// blast, and the per-blast hit set must prevent re-application on later
// steps while the volumes stay alive.
func TestSimultaneousBlastsOneImpulseEach(t *testing.T) {
	w := New() // free space: gravity is the only other influence
	_, bombA := w.AddBody(geom.Sphere{R: 0.1}, 0, m3.V(-1, 5, 0), m3.QIdent, 0, 0)
	_, bombB := w.AddBody(geom.Sphere{R: 0.1}, 0, m3.V(1, 5, 0), m3.QIdent, 0, 0)
	w.MarkExplosive(bombA, ExplosiveSpec{Radius: 2, Duration: 1.0, Impulse: 10})
	w.MarkExplosive(bombB, ExplosiveSpec{Radius: 2, Duration: 1.0, Impulse: 20})
	// Target sits 1 m from each blast center: proximity scale = 0.5.
	tgt, _ := w.AddBody(geom.Sphere{R: 0.2}, 1, m3.V(0, 5, 0), m3.QIdent, 0, 0)
	// Bystander only inside blast B's radius.
	by, _ := w.AddBody(geom.Sphere{R: 0.2}, 1, m3.V(2.5, 5, 0), m3.QIdent, 0, 0)

	w.detonate(bombA, &w.Profile)
	w.detonate(bombB, &w.Profile)
	if len(w.Blasts) != 2 {
		t.Fatalf("expected 2 active blasts, got %d", len(w.Blasts))
	}
	w.Step()

	gdt := w.Gravity.Scale(w.Dt)
	// Blast A pushes +x with 10*0.5, blast B pushes -x with 20*0.5.
	wantTgt := m3.V(10*0.5-20*0.5, 0, 0).Add(gdt)
	if got := w.Bodies[tgt].LinVel; got.Sub(wantTgt).Len() > 1e-9 {
		t.Errorf("target velocity = %v, want %v (one impulse per blast)", got, wantTgt)
	}
	// Bystander: dist 1.5 from B (scale 0.25), outside A.
	wantBy := m3.V(20*0.25, 0, 0).Add(gdt)
	if got := w.Bodies[by].LinVel; got.Sub(wantBy).Len() > 1e-9 {
		t.Errorf("bystander velocity = %v, want %v", got, wantBy)
	}

	// The volumes are still alive; further steps must add gravity only.
	v1 := w.Bodies[tgt].LinVel
	w.Step()
	if got := w.Bodies[tgt].LinVel.Sub(v1); got.Sub(gdt).Len() > 1e-9 {
		t.Errorf("second step re-applied a blast impulse: dv=%v", got)
	}
	if len(w.Blasts) != 2 {
		t.Fatalf("blasts expired prematurely")
	}
}

// TestPoolResizeViaThreads changes the thread count between steps and
// checks the pool is rebuilt to match and that the trajectory stays
// bit-identical to a single-threaded reference world.
func TestPoolResizeViaThreads(t *testing.T) {
	build := func() *World {
		w := groundWorld()
		for i := 0; i < 12; i++ {
			w.AddBody(geom.Box{Half: m3.V(0.3, 0.3, 0.3)}, 1,
				m3.V(float64(i%3)*0.65, 0.4+float64(i/3)*0.65, 0), m3.QIdent, 0, 0)
		}
		return w
	}
	ref, w := build(), build()
	for _, th := range []int{1, 4, 2, 8, 1, 3} {
		w.SetThreads(th)
		for i := 0; i < 10; i++ {
			ref.Step()
			w.Step()
		}
		want := th - 1
		if want < 1 {
			if w.pool != nil {
				t.Fatalf("Threads=%d left a live pool", th)
			}
		} else if w.pool == nil || w.pool.n != want {
			t.Fatalf("Threads=%d: pool has %d workers, want %d", th, poolN(w), want)
		}
	}
	for i := range w.Bodies {
		if w.Bodies[i].Pos != ref.Bodies[i].Pos || w.Bodies[i].Rot != ref.Bodies[i].Rot {
			t.Fatalf("body %d diverged from serial reference after pool resizes", i)
		}
	}
}

// TestSetThreadsClampsAndReusesPool: counts below 1 mean serial with no
// pool, and setting the count the pool already has keeps that pool
// rather than restarting its workers.
func TestSetThreadsClampsAndReusesPool(t *testing.T) {
	w := New()
	for _, n := range []int{0, -3} {
		w.SetThreads(n)
		if w.threads != 1 || w.pool != nil {
			t.Fatalf("SetThreads(%d): threads %d, pool workers %d; want 1 and no pool", n, w.threads, poolN(w))
		}
	}
	w.SetThreads(3)
	p := w.pool
	if p == nil || p.n != 2 {
		t.Fatalf("SetThreads(3): pool workers %d, want 2", poolN(w))
	}
	w.SetThreads(3)
	if w.pool != p {
		t.Fatal("SetThreads with an unchanged count rebuilt the pool")
	}
	w.SetThreads(0)
	if w.threads != 1 || w.pool != nil {
		t.Fatalf("SetThreads(0) after 3: threads %d, pool workers %d; want 1 and no pool", w.threads, poolN(w))
	}
}

func poolN(w *World) int {
	if w.pool == nil {
		return 0
	}
	return w.pool.n
}

// TestSolverIterationsReportedWithoutIslands: a step that builds no
// islands must still report the solver's configured iteration count, not
// zero — the architecture model reads it as the per-island relaxation
// depth, which is a world constant.
func TestSolverIterationsReportedWithoutIslands(t *testing.T) {
	w := New()
	w.AddStatic(geom.Plane{Normal: m3.V(0, 1, 0), Offset: 0}, m3.Zero, m3.QIdent)
	w.Step()
	if len(w.Profile.Islands) != 0 {
		t.Fatalf("scene unexpectedly produced %d islands", len(w.Profile.Islands))
	}
	if got := w.Profile.Solver.Iterations; got != w.Solver.Iterations {
		t.Errorf("zero-island step reported Solver.Iterations=%d, want %d", got, w.Solver.Iterations)
	}
}

// detWorld builds a scene exercising every parallel phase: stacked
// boxes and spheres (contacts, islands), a hinged pair (joint rows), and
// a pinned cloth sheet.
func detWorld(threads int) *World {
	w := groundWorld()
	w.SetThreads(threads)
	for i := 0; i < 14; i++ {
		w.AddBody(geom.Box{Half: m3.V(0.3, 0.3, 0.3)}, 1,
			m3.V(float64(i%4)*0.7-1, 0.4+float64(i/4)*0.65, 0), m3.QIdent, 0, 0)
	}
	for i := 0; i < 6; i++ {
		w.AddBody(geom.Sphere{R: 0.25}, 1,
			m3.V(float64(i)*0.6-2, 2.5, 1.5), m3.QIdent, 0, 0)
	}
	a, _ := w.AddBody(geom.Box{Half: m3.V(0.2, 0.2, 0.2)}, 1, m3.V(3, 1, 0), m3.QIdent, 0, 0)
	b, _ := w.AddBody(geom.Box{Half: m3.V(0.2, 0.2, 0.2)}, 1, m3.V(3.5, 1, 0), m3.QIdent, 0, 0)
	w.AddJoint(joint.NewHinge(w.Bodies, a, b, m3.V(3.25, 1, 0), m3.V(0, 0, 1)))
	c := cloth.NewGrid(6, 6, 0.2, m3.V(-3, 2, -2), 0.5)
	c.PinParticle(0)
	c.PinParticle(5)
	w.AddCloth(c)
	return w
}

// TestThreadCountDeterminism is the tentpole's safety net: stepping the
// same scene with 1 and 8 threads must produce bit-identical body poses,
// cloth particles, and step profiles, frame after frame. CI runs this
// under -race, which also catches cross-island write races.
func TestThreadCountDeterminism(t *testing.T) {
	w1, w8 := detWorld(1), detWorld(8)
	for frame := 0; frame < 3; frame++ {
		var f1, f8 FrameProfile
		for s := 0; s < 30; s++ {
			w1.Step()
			f1.Add(w1.Profile)
			w8.Step()
			f8.Add(w8.Profile)
		}
		for i := range w1.Bodies {
			if w1.Bodies[i].Pos != w8.Bodies[i].Pos || w1.Bodies[i].Rot != w8.Bodies[i].Rot ||
				w1.Bodies[i].LinVel != w8.Bodies[i].LinVel || w1.Bodies[i].AngVel != w8.Bodies[i].AngVel {
				t.Fatalf("frame %d: body %d state differs between 1 and 8 threads", frame, i)
			}
		}
		for i := range w1.Cloths[0].Particles {
			if w1.Cloths[0].Particles[i].Pos != w8.Cloths[0].Particles[i].Pos {
				t.Fatalf("frame %d: cloth particle %d differs between 1 and 8 threads", frame, i)
			}
		}
		if !reflect.DeepEqual(f1, f8) {
			for s := range f1.Steps {
				if !reflect.DeepEqual(f1.Steps[s], f8.Steps[s]) {
					t.Fatalf("frame %d step %d: profiles differ:\n 1T: %+v\n 8T: %+v",
						frame, s, f1.Steps[s], f8.Steps[s])
				}
			}
			t.Fatalf("frame %d: frame profiles differ", frame)
		}
	}
}

// TestStepSteadyStateAllocs is the tentpole's acceptance check at unit
// scope: once warm, Step must not touch the heap.
func TestStepSteadyStateAllocs(t *testing.T) {
	for _, th := range []int{1, 2} {
		w := detWorld(th)
		for i := 0; i < 150; i++ {
			w.Step()
		}
		avg := testing.AllocsPerRun(50, func() { w.Step() })
		if avg != 0 {
			t.Errorf("threads=%d: steady-state Step allocates %.1f objects/op, want 0", th, avg)
		}
	}
}

// incSAPWorld is detWorld running on the incremental sweep-and-prune.
func incSAPWorld(threads int) *World {
	w := detWorld(threads)
	w.Broad = broadphase.NewIncrementalSAP()
	return w
}

// TestIncSAPThreadCountDeterminism runs the 1-vs-8-thread oracle with
// the incremental broad phase: its pair emission (map iteration +
// canonical sort) and the chunk-parallel phases around it must stay
// byte-deterministic, profile digest by profile digest.
func TestIncSAPThreadCountDeterminism(t *testing.T) {
	w1, w8 := incSAPWorld(1), incSAPWorld(8)
	for s := 0; s < 90; s++ {
		w1.Step()
		w8.Step()
		if w1.Profile.Digest() != w8.Profile.Digest() {
			t.Fatalf("step %d: profile digests differ between 1 and 8 threads", s)
		}
	}
	for i := range w1.Bodies {
		if w1.Bodies[i].Pos != w8.Bodies[i].Pos || w1.Bodies[i].Rot != w8.Bodies[i].Rot {
			t.Fatalf("body %d state differs between 1 and 8 threads", i)
		}
	}
}

// TestIncSAPStepSteadyStateAllocs: the incremental broad phase must
// keep the steady-state Step allocation-free — the persistent pair set
// and endpoint array reuse their capacity across passes.
func TestIncSAPStepSteadyStateAllocs(t *testing.T) {
	for _, th := range []int{1, 2} {
		w := incSAPWorld(th)
		for i := 0; i < 150; i++ {
			w.Step()
		}
		avg := testing.AllocsPerRun(50, func() { w.Step() })
		if avg != 0 {
			t.Errorf("threads=%d: steady-state Step allocates %.1f objects/op, want 0", th, avg)
		}
	}
}
