package world

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/broadphase"
	"github.com/parallax-arch/parallax/internal/phys/cloth"
	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/joint"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

// fuzzOps interprets a byte stream as a bounded world-building program.
// Every value is clamped into ranges the solver is stable in, so the
// fuzzer explores scene topology (bodies, joints, cloth, explosives,
// disabled geoms, step bursts) rather than numeric blow-ups.
type fuzzOps struct {
	data []byte
	i    int
}

func (f *fuzzOps) byte() byte {
	if f.i >= len(f.data) {
		return 0
	}
	b := f.data[f.i]
	f.i++
	return b
}

// unit returns a value in [0, 1) with 1/256 resolution.
func (f *fuzzOps) unit() float64 { return float64(f.byte()) / 256 }

// span returns a value in [lo, hi).
func (f *fuzzOps) span(lo, hi float64) float64 { return lo + (hi-lo)*f.unit() }

// buildFuzzWorld replays the op stream into a fresh world with the
// given thread count and broad-phase implementation (nil keeps the
// default full sweep). The same bytes always build the same scene.
func buildFuzzWorld(data []byte, threads int, broad broadphase.Interface) *World {
	w := New()
	w.Threads = threads
	if broad != nil {
		w.Broad = broad
	}
	w.WarmStart = true
	w.EnableSleep = true
	w.AddStatic(geom.Plane{Normal: m3.V(0, 1, 0)}, m3.V(0, 0, 0), m3.QIdent)

	f := &fuzzOps{data: data}
	const maxOps = 96
	for n := 0; n < maxOps && f.i < len(f.data); n++ {
		switch f.byte() % 8 {
		case 0: // box body
			if len(w.Bodies) >= 48 {
				continue
			}
			h := f.span(0.1, 0.5)
			w.AddBody(geom.Box{Half: m3.V(h, h, h)}, f.span(0.5, 4),
				m3.V(f.span(-8, 8), f.span(0.2, 5), f.span(-8, 8)), m3.QIdent, 0, 0)
		case 1: // sphere body with a small initial velocity
			if len(w.Bodies) >= 48 {
				continue
			}
			bi, _ := w.AddBody(geom.Sphere{R: f.span(0.1, 0.4)}, f.span(0.5, 2),
				m3.V(f.span(-8, 8), f.span(0.3, 5), f.span(-8, 8)), m3.QIdent, 0, 0)
			w.Bodies[bi].LinVel = m3.V(f.span(-3, 3), f.span(-3, 0), f.span(-3, 3))
		case 2: // capsule body
			if len(w.Bodies) >= 48 {
				continue
			}
			w.AddBody(geom.Capsule{R: f.span(0.1, 0.3), HalfLen: f.span(0.1, 0.5)}, f.span(0.5, 2),
				m3.V(f.span(-8, 8), f.span(0.5, 5), f.span(-8, 8)), m3.QIdent, 0, 0)
		case 3: // joint between two existing bodies
			if len(w.Bodies) < 2 {
				continue
			}
			a := int32(int(f.byte()) % len(w.Bodies))
			b := int32(int(f.byte()) % len(w.Bodies))
			if a == b {
				continue
			}
			mid := w.Bodies[a].Pos.Add(w.Bodies[b].Pos).Scale(0.5)
			switch f.byte() % 3 {
			case 0:
				w.AddJoint(joint.NewBall(w.Bodies, a, b, mid))
			case 1:
				w.AddJoint(joint.NewFixed(w.Bodies, a, b, mid))
			default:
				w.AddJoint(joint.NewBreakable(
					joint.NewBall(w.Bodies, a, b, mid), 0, f.span(1e3, 1e5)))
			}
		case 4: // small cloth
			if len(w.Cloths) >= 2 {
				continue
			}
			c := cloth.NewGrid(4, 4, 0.2, m3.V(f.span(-4, 4), f.span(1, 3), f.span(-4, 4)), 0.5)
			if f.byte()%2 == 0 {
				c.PinParticle(0)
			}
			w.AddCloth(c)
		case 5: // arm an existing dynamic geom as an explosive
			if len(w.Geoms) == 0 {
				continue
			}
			gi := int32(int(f.byte()) % len(w.Geoms))
			g := w.Geoms[gi]
			if g == nil || g.Body < 0 || !g.Enabled() || g.Flags.Has(geom.FlagExplosive) {
				continue
			}
			w.MarkExplosive(gi, ExplosiveSpec{
				Radius:   f.span(0.5, 2.5),
				Duration: f.span(0.02, 0.2),
				Impulse:  f.span(1, 15),
			})
		case 6: // disable a geom
			if len(w.Geoms) == 0 {
				continue
			}
			gi := int32(int(f.byte()) % len(w.Geoms))
			if g := w.Geoms[gi]; g != nil && g.Body >= 0 && g.Enabled() {
				w.DisableBodyGeom(gi)
			}
		default: // step burst
			steps := int(f.byte())%4 + 1
			for s := 0; s < steps; s++ {
				w.Step()
			}
		}
	}
	return w
}

// FuzzWorldStep drives random bounded op sequences through the engine
// and cross-checks three determinism oracles on every input:
//
//  1. thread invariance — the same program built and stepped at 1 and
//     3 threads ends in byte-identical snapshots;
//  2. snapshot transparency — forking the 1-thread world mid-run via
//     Restore(Snapshot()) and stepping both copies keeps them
//     byte-identical, profile digest by profile digest;
//  3. encode stability — a snapshot re-encoded through a restore round
//     trip reproduces its exact bytes;
//  4. broad-phase equivalence — the same program run with the
//     incremental SAP passes oracle 1 too, and ends with body state
//     bit-identical to the full-sweep run (profile digests differ
//     between implementations only in maintenance counters, so the
//     comparison is on the simulated state itself);
//  5. the pair list — at every step of the 3-thread run, the pairs the
//     chunk-parallel sweep-and-prune produced are BruteForce's over the
//     same geoms. This is the pair-list oracle that outlives
//     IncrementalSAP.
//
// The last seed stacks five boxes and three spheres on one spot: the 3
// threads cut the eight start positions into chunks of 3, 3 and 2, and
// every cut falls inside one overlapping cluster.
func FuzzWorldStep(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 1, 20, 7, 7, 7})
	f.Add([]byte{0, 100, 1, 30, 3, 0, 1, 2, 7, 5, 2, 9, 9, 9, 7, 7})
	f.Add([]byte{4, 1, 0, 50, 5, 1, 8, 8, 8, 7, 7, 7, 7, 6, 2, 7})
	f.Add(bytes.Repeat([]byte{0, 40, 80, 120, 160, 200, 7, 3, 5, 6, 2, 1, 4}, 8))
	f.Add(slices.Concat(
		bytes.Repeat([]byte{0, 128, 128, 128, 40, 128}, 5),
		bytes.Repeat([]byte{1, 100, 128, 128, 60, 128, 128, 128, 128}, 3),
		[]byte{7, 3, 7, 3}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			t.Skip("op stream longer than budget")
		}
		w1 := buildFuzzWorld(data, 1, nil)
		wN := buildFuzzWorld(data, 3, nil)

		for i := 0; i < 10; i++ {
			w1.Step()
			want := brutePairs(t, wN)
			wN.Step()
			if !slices.Equal(wN.pairBuf, want) {
				t.Fatalf("step %d: 3-thread sweep found %d pairs, brute force %d", i, len(wN.pairBuf), len(want))
			}
			if w1.Profile.Digest() != wN.Profile.Digest() {
				t.Fatalf("1-thread and 3-thread profiles diverged at step %d", i)
			}
		}
		s1 := w1.Snapshot()
		if !bytes.Equal(s1, wN.Snapshot()) {
			t.Fatal("1-thread and 3-thread end states differ")
		}

		w2 := New()
		if err := w2.Restore(s1); err != nil {
			t.Fatalf("Restore of own snapshot failed: %v", err)
		}
		if !bytes.Equal(w2.Snapshot(), s1) {
			t.Fatal("snapshot not byte-stable through restore")
		}
		for i := 0; i < 8; i++ {
			w1.Step()
			w2.Step()
			if w1.Profile.Digest() != w2.Profile.Digest() {
				t.Fatalf("restored world diverged from original at step %d", i)
			}
		}
		if !bytes.Equal(w1.Snapshot(), w2.Snapshot()) {
			t.Fatal("restored world end state differs from original")
		}

		// Oracle 4: the incremental SAP through oracle 1.
		i1 := buildFuzzWorld(data, 1, broadphase.NewIncrementalSAP())
		iN := buildFuzzWorld(data, 3, broadphase.NewIncrementalSAP())
		for i := 0; i < 10; i++ {
			i1.Step()
			iN.Step()
			if i1.Profile.Digest() != iN.Profile.Digest() {
				t.Fatalf("incsap: 1-thread and 3-thread profiles diverged at step %d", i)
			}
		}
		if !bytes.Equal(i1.Snapshot(), iN.Snapshot()) {
			t.Fatal("incsap: 1-thread and 3-thread end states differ")
		}
		for i := 0; i < 8; i++ {
			i1.Step()
		}
		// w1 and i1 have now run the same program for the same number of
		// steps under different broad phases; the simulated state must be
		// bit-identical.
		if len(w1.Bodies) != len(i1.Bodies) {
			t.Fatalf("body count differs between broad phases: %d vs %d", len(w1.Bodies), len(i1.Bodies))
		}
		for bi := range w1.Bodies {
			a, b := w1.Bodies[bi], i1.Bodies[bi]
			if !sameVec(a.Pos, b.Pos) || !sameQuat(a.Rot, b.Rot) ||
				!sameVec(a.LinVel, b.LinVel) || !sameVec(a.AngVel, b.AngVel) {
				t.Fatalf("body %d state differs between full and incremental SAP", bi)
			}
		}
	})
}

// brutePairs is BruteForce over w's geoms as the pair pass of w's next
// step will see them: on a clone, the two things Step does to the geoms
// before that pass — applyGravity's cloth-proxy update and the AABB
// refresh. (After the step the geoms have moved on, and detonations and
// fracture may have enabled and disabled some.)
func brutePairs(t *testing.T, w *World) []broadphase.Pair {
	c, err := w.Clone()
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}
	c.applyGravity()
	for _, g := range c.Geoms {
		if g.Enabled() {
			g.UpdateAABB()
		}
	}
	return broadphase.NewBruteForce().PairsPrerefreshed(c.Geoms, nil)
}

// sameVec and sameQuat compare by IEEE-754 bit pattern, so a shared
// NaN cannot mask (or fake) a divergence the way float equality would.
func sameVec(a, b m3.Vec) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

func sameQuat(a, b m3.Quat) bool {
	return math.Float64bits(a.W) == math.Float64bits(b.W) &&
		math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}
