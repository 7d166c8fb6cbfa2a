package world

import (
	"math"
	"reflect"
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/body"
	"github.com/parallax-arch/parallax/internal/phys/cloth"
	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/joint"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

func groundWorld() *World {
	w := New()
	w.AddStatic(geom.Plane{Normal: m3.V(0, 1, 0), Offset: 0}, m3.Zero, m3.QIdent)
	return w
}

func TestBallFallsAndRests(t *testing.T) {
	w := groundWorld()
	bi, _ := w.AddBody(geom.Sphere{R: 0.5}, 1, m3.V(0, 3, 0), m3.QIdent, 0, 0)
	for i := 0; i < 300; i++ {
		w.Step()
	}
	b := w.Bodies[bi]
	if math.Abs(b.Pos.Y-0.5) > 0.05 {
		t.Errorf("ball resting height = %v, want ~0.5", b.Pos.Y)
	}
	if b.LinVel.Len() > 0.1 {
		t.Errorf("ball still moving at %v m/s", b.LinVel.Len())
	}
	if !b.Valid() {
		t.Error("body state invalid")
	}
}

func TestBoxStackStable(t *testing.T) {
	w := groundWorld()
	var tops []int32
	for i := 0; i < 4; i++ {
		bi, _ := w.AddBody(geom.Box{Half: m3.V(0.5, 0.5, 0.5)}, 2,
			m3.V(0, 0.5+float64(i)*1.001, 0), m3.QIdent, 0, 0)
		tops = append(tops, bi)
	}
	for i := 0; i < 200; i++ {
		w.Step()
	}
	for n, bi := range tops {
		b := w.Bodies[bi]
		wantY := 0.5 + float64(n)*1.0
		if math.Abs(b.Pos.Y-wantY) > 0.2 {
			t.Errorf("box %d at y=%v, want ~%v", n, b.Pos.Y, wantY)
		}
		if math.Abs(b.Pos.X) > 0.3 || math.Abs(b.Pos.Z) > 0.3 {
			t.Errorf("box %d drifted laterally to (%v, %v)", n, b.Pos.X, b.Pos.Z)
		}
	}
}

func TestParallelMatchesSerialStructure(t *testing.T) {
	// The same scene stepped with 1 and 4 threads must produce identical
	// pair/contact/island statistics (per-thread buffers are merged in
	// thread order, so the simulation is deterministic).
	build := func(threads int) *World {
		w := groundWorld()
		w.SetThreads(threads)
		for i := 0; i < 20; i++ {
			x := float64(i%5) * 1.2
			z := float64(i/5) * 1.2
			w.AddBody(geom.Sphere{R: 0.5}, 1, m3.V(x, 1+float64(i%3), z), m3.QIdent, 0, 0)
		}
		return w
	}
	w1 := build(1)
	w4 := build(4)
	for i := 0; i < 60; i++ {
		w1.Step()
		w4.Step()
		p1, p4 := w1.Profile, w4.Profile
		if p1.Pairs != p4.Pairs || p1.Contacts != p4.Contacts || len(p1.Islands) != len(p4.Islands) {
			t.Fatalf("step %d: serial/parallel divergence: pairs %d/%d contacts %d/%d islands %d/%d",
				i, p1.Pairs, p4.Pairs, p1.Contacts, p4.Contacts, len(p1.Islands), len(p4.Islands))
		}
	}
	for i := range w1.Bodies {
		d := w1.Bodies[i].Pos.Dist(w4.Bodies[i].Pos)
		if d > 1e-9 {
			t.Fatalf("body %d diverged by %v between 1 and 4 threads", i, d)
		}
	}
}

func TestIslandFormation(t *testing.T) {
	w := groundWorld()
	// Two separate stacks -> two islands (plus any singletons).
	for i := 0; i < 3; i++ {
		w.AddBody(geom.Box{Half: m3.V(0.5, 0.5, 0.5)}, 1, m3.V(0, 0.5+float64(i), 0), m3.QIdent, 0, 0)
		w.AddBody(geom.Box{Half: m3.V(0.5, 0.5, 0.5)}, 1, m3.V(10, 0.5+float64(i), 0), m3.QIdent, 0, 0)
	}
	for i := 0; i < 10; i++ {
		w.Step()
	}
	if len(w.Profile.Islands) != 2 {
		t.Errorf("want 2 islands, got %d: %+v", len(w.Profile.Islands), w.Profile.Islands)
	}
	for _, is := range w.Profile.Islands {
		if is.Bodies != 3 {
			t.Errorf("island body count = %d, want 3", is.Bodies)
		}
		if is.DOF == 0 {
			t.Error("island has no constraint rows")
		}
	}
}

func TestJointedPendulum(t *testing.T) {
	w := New()
	bi, _ := w.AddBody(geom.Sphere{R: 0.2}, 1, m3.V(1, 0, 0), m3.QIdent, 0, 0)
	w.AddJoint(joint.NewBall(w.Bodies, int32(bi), -1, m3.Zero))
	minY := 0.0
	for i := 0; i < 500; i++ {
		w.Step()
		b := w.Bodies[bi]
		// The bob stays on (approximately) the unit sphere around the
		// anchor throughout the swing.
		if r := b.Pos.Len(); math.Abs(r-1) > 0.05 {
			t.Fatalf("step %d: pendulum length drifted to %v", i, r)
		}
		if b.Pos.Y < minY {
			minY = b.Pos.Y
		}
	}
	// At some point it must have swung well below its start.
	if minY > -0.8 {
		t.Errorf("pendulum never swung down: min y = %v", minY)
	}
}

func TestExplosionReplacesBodyWithBlast(t *testing.T) {
	w := groundWorld()
	_, gi := w.AddBody(geom.Sphere{R: 0.3}, 1, m3.V(0, 0.29, 0), m3.QIdent, 0, 0)
	w.MarkExplosive(gi, ExplosiveSpec{Radius: 3, Duration: 0.05, Impulse: 10})
	// A bystander inside the future blast radius.
	vi, _ := w.AddBody(geom.Sphere{R: 0.3}, 1, m3.V(1.5, 0.3, 0), m3.QIdent, 0, 0)

	w.Step() // bomb touches the ground -> detonates
	if w.Profile.Explosions != 1 {
		t.Fatalf("explosions = %d, want 1", w.Profile.Explosions)
	}
	if w.Geoms[gi].Enabled() {
		t.Error("explosive geom should be disabled after detonation")
	}
	if len(w.Blasts) != 1 {
		t.Fatalf("blast volume not created")
	}
	w.Step() // blast pairs with the bystander and pushes it
	v := w.Bodies[vi]
	if v.LinVel.X <= 0.5 {
		t.Errorf("bystander not pushed away: vel %v", v.LinVel)
	}
	// Blast expires after its duration.
	for i := 0; i < 10; i++ {
		w.Step()
	}
	if len(w.Blasts) != 0 {
		t.Error("blast volume did not expire")
	}
}

func TestPrefractureShatters(t *testing.T) {
	w := groundWorld()
	// Parent brick.
	_, pg := w.AddBody(geom.Box{Half: m3.V(0.5, 0.5, 0.5)}, 4, m3.V(0, 0.5, 0), m3.QIdent, 0, 0)
	// Four debris pieces inside it, disabled at startup.
	var debris []int32
	for i := 0; i < 4; i++ {
		off := m3.V(float64(i%2)*0.5-0.25, 0.5, float64(i/2)*0.5-0.25)
		_, dg := w.AddBody(geom.Box{Half: m3.V(0.25, 0.25, 0.25)}, 1, off, m3.QIdent, geom.FlagDebris, 0)
		w.DisableBodyGeom(dg)
		debris = append(debris, dg)
	}
	w.RegisterFracture(pg, debris)

	// A bomb resting against the brick.
	_, bomb := w.AddBody(geom.Sphere{R: 0.3}, 1, m3.V(0.85, 0.3, 0), m3.QIdent, 0, 0)
	w.MarkExplosive(bomb, ExplosiveSpec{Radius: 2, Duration: 0.05, Impulse: 5})

	found := false
	for i := 0; i < 5; i++ {
		w.Step()
		if w.Profile.FractureHit > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("blast did not shatter the prefractured brick")
	}
	if w.Geoms[pg].Enabled() {
		t.Error("parent geom still enabled after shattering")
	}
	for _, dg := range debris {
		if !w.Geoms[dg].Enabled() {
			t.Error("debris not enabled after shattering")
		}
	}
	if w.Fractures[0].Broken != true {
		t.Error("fracture group not marked broken")
	}
}

func TestBreakableJointBreaksUnderLoad(t *testing.T) {
	w := New()
	// A heavy body hanging from a weak joint to the world.
	bi, _ := w.AddBody(geom.Sphere{R: 0.3}, 50, m3.V(0, -1, 0), m3.QIdent, 0, 0)
	j := joint.NewBreakable(joint.NewBall(w.Bodies, int32(bi), -1, m3.Zero), 100, 0)
	w.AddJoint(j)
	broke := false
	for i := 0; i < 100; i++ {
		w.Step()
		if w.Profile.JointBreaks > 0 {
			broke = true
			break
		}
	}
	if !broke {
		t.Fatal("overloaded breakable joint did not break")
	}
	// After breaking the body free-falls.
	y0 := w.Bodies[bi].Pos.Y
	for i := 0; i < 50; i++ {
		w.Step()
	}
	if w.Bodies[bi].Pos.Y >= y0-0.5 {
		t.Error("body did not fall after joint broke")
	}
}

func TestClothContactListDrivesCollision(t *testing.T) {
	w := New()
	w.AddStatic(geom.Plane{Normal: m3.V(0, 1, 0), Offset: 0}, m3.Zero, m3.QIdent)
	c := cloth.NewGrid(8, 8, 0.1, m3.V(-0.35, 1.2, -0.35), 0.5)
	w.AddCloth(c)
	// A ball placed under the cloth.
	w.AddBody(geom.Sphere{R: 0.4}, 0, m3.V(0, 0.4, 0), m3.QIdent, 0, 0)
	for i := 0; i < 200; i++ {
		w.Step()
	}
	for i := range c.Particles {
		d := c.Particles[i].Pos.Dist(m3.V(0, 0.4, 0))
		if d < 0.4-1e-6 {
			t.Fatalf("cloth particle %d penetrated the ball (dist %v)", i, d)
		}
	}
	if w.Profile.ClothVerts[0] != 64 {
		t.Errorf("cloth verts = %v, want [64]", w.Profile.ClothVerts)
	}
}

func TestProfilePopulated(t *testing.T) {
	w := groundWorld()
	w.AddBody(geom.Sphere{R: 0.5}, 1, m3.V(0, 0.4, 0), m3.QIdent, 0, 0)
	w.AddBody(geom.Sphere{R: 0.5}, 1, m3.V(0.6, 0.4, 0), m3.QIdent, 0, 0)
	f := w.StepFrame()
	if len(f.Steps) != StepsPerFrame {
		t.Fatalf("frame steps = %d", len(f.Steps))
	}
	if f.TotalPairs() == 0 || f.TotalContacts() == 0 {
		t.Errorf("frame profile empty: pairs %d contacts %d", f.TotalPairs(), f.TotalContacts())
	}
	p := w.Profile
	if p.Solver.RowUpdates == 0 || p.BodiesIntegrated == 0 {
		t.Errorf("solver stats missing: %+v", p.Solver)
	}
	if p.Broad.Geoms == 0 {
		t.Error("broadphase stats missing")
	}
}

func TestSleepFreezesIdleBodies(t *testing.T) {
	w := groundWorld()
	w.EnableSleep = true
	bi, _ := w.AddBody(geom.Sphere{R: 0.5}, 1, m3.V(0, 0.5, 0), m3.QIdent, 0, 0)
	for i := 0; i < 300; i++ {
		w.Step()
	}
	if !w.Bodies[bi].Asleep {
		t.Error("resting body did not fall asleep")
	}
	// A projectile hitting it wakes it up.
	w.AddBody(geom.Sphere{R: 0.3}, 1, m3.V(-3, 0.5, 0), m3.QIdent, 0, 0)
	w.Bodies[len(w.Bodies)-1].LinVel = m3.V(10, 0, 0)
	woke := false
	for i := 0; i < 100; i++ {
		w.Step()
		if !w.Bodies[bi].Asleep {
			woke = true
			break
		}
	}
	if !woke {
		t.Error("contact did not wake the sleeping body")
	}
}

// A sleeping body jointed to partners too slow to wake it belongs to no
// island: solveIsland freezes that endpoint to -1, so the solver neither
// gathers nor scatters it. Each sleeper here sits between two awake
// partners, which makes two islands per sleeper that the worker pool may
// solve at once — a scatter that wrote the sleeper would be a data race
// (CI runs this package under -race) as well as a wrong answer.
func TestSolveLeavesSleepingPartnerAlone(t *testing.T) {
	type vel struct{ lin, ang m3.Vec }
	var want []vel
	for _, threads := range []int{1, 3} {
		w := New()
		w.Gravity = m3.Zero
		w.EnableSleep = true
		w.SetThreads(threads)
		var sleepers, partners []int32
		for k := 0; k < 6; k++ {
			x := float64(10 * k)
			s, _ := w.AddBody(geom.Sphere{R: 0.2}, 1, m3.V(x, 5, 0), m3.QIdent, 0, 0)
			w.Bodies[s].UpdateSleep(body.SleepDelay + 0.1) // asleep, with a clock to disturb
			sleepers = append(sleepers, s)
			for _, dx := range []float64{-1, 1} {
				p, _ := w.AddBody(geom.Sphere{R: 0.2}, 1, m3.V(x+dx, 5, 0), m3.QIdent, 0, 0)
				w.AddJoint(joint.NewBall(w.Bodies, s, p, m3.V(x+dx/2, 5, 0)))
				// Pull the joint apart while leaving the partner at rest:
				// the error-reduction bias makes the solve move the partner,
				// yet nothing is moving when the wake pass looks.
				w.Bodies[p].Pos = w.Bodies[p].Pos.Add(m3.V(0, 0.05, 0))
				partners = append(partners, p)
			}
		}
		w.Step()

		if n := len(w.Profile.Islands); n != len(partners) {
			t.Fatalf("threads=%d: %d islands, want one per awake partner (%d)", threads, n, len(partners))
		}
		for k, s := range sleepers {
			b := w.Bodies[s]
			if b.LinVel != m3.Zero || b.AngVel != m3.Zero || b.Pos != m3.V(float64(10*k), 5, 0) {
				t.Errorf("threads=%d: sleeper %d moved: v=%v w=%v pos=%v", threads, s, b.LinVel, b.AngVel, b.Pos)
			}
			if !b.Asleep || b.SleepClock() != body.SleepDelay+0.1 {
				t.Errorf("threads=%d: sleeper %d sleep state disturbed: asleep=%v clock=%v", threads, s, b.Asleep, b.SleepClock())
			}
		}
		var got []vel
		for _, p := range partners {
			b := w.Bodies[p]
			if b.LinVel == m3.Zero {
				t.Errorf("threads=%d: partner %d was not moved by its joint; the test solves nothing", threads, p)
			}
			got = append(got, vel{b.LinVel, b.AngVel})
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("threads=%d partner velocities differ from threads=1:\n%v\n%v", threads, got, want)
		}
	}
}

func TestSmallIslandsRunOnMainThread(t *testing.T) {
	// A single pair of touching spheres forms a small island (6 contact
	// rows < SmallIslandDOF+1? contact rows = 3 per contact). Just check
	// the step works under multiple threads with small islands.
	w := groundWorld()
	w.SetThreads(4)
	w.AddBody(geom.Sphere{R: 0.5}, 1, m3.V(0, 0.45, 0), m3.QIdent, 0, 0)
	for i := 0; i < 20; i++ {
		w.Step()
	}
	if len(w.Profile.Islands) != 1 {
		t.Fatalf("islands = %d", len(w.Profile.Islands))
	}
	if w.Profile.Islands[0].DOF > SmallIslandDOF {
		t.Skip("island unexpectedly large")
	}
}

func TestHeightFieldDrive(t *testing.T) {
	// A ball rolling downhill on a ramp heightfield gains lateral speed.
	w := New()
	n := 20
	hs := make([]float64, n*n)
	for z := 0; z < n; z++ {
		for x := 0; x < n; x++ {
			hs[z*n+x] = float64(n-x) * 0.2 // slope down along +x
		}
	}
	w.AddStatic(geom.NewHeightField(n, n, 1, 1, hs), m3.V(0, 0, 0), m3.QIdent)
	bi, _ := w.AddBody(geom.Sphere{R: 0.5}, 1, m3.V(3, hs[3]+3, 10), m3.QIdent, 0, 0)
	for i := 0; i < 300; i++ {
		w.Step()
	}
	b := w.Bodies[bi]
	if b.LinVel.X <= 0.2 && b.Pos.X < 4 {
		t.Errorf("ball did not roll downhill: pos %v vel %v", b.Pos, b.LinVel)
	}
	if !b.Valid() {
		t.Error("body invalid")
	}
}
