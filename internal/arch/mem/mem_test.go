package mem

import (
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/cloth"
	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/joint"
	"github.com/parallax-arch/parallax/internal/phys/m3"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

func sampleWorld() *world.World {
	w := world.New()
	w.AddStatic(geom.Plane{Normal: m3.V(0, 1, 0)}, m3.Zero, m3.QIdent)
	var prev int32 = -1
	for i := 0; i < 8; i++ {
		bi, _ := w.AddBody(geom.Box{Half: m3.V(0.4, 0.4, 0.4)}, 1,
			m3.V(float64(i)*0.85, 0.4, 0), m3.QIdent, 0, 0)
		if prev >= 0 {
			w.AddJoint(joint.NewBall(w.Bodies, prev, bi, m3.V(float64(i)*0.85-0.42, 0.4, 0)))
		}
		prev = bi
	}
	w.AddCloth(cloth.NewGrid(5, 5, 0.1, m3.V(0, 2, 0), 0.5))
	return w
}

func TestLayoutAddressesDisjointAndOrdered(t *testing.T) {
	w := sampleWorld()
	l := NewLayout(w)
	if len(l.BodyAddr) != len(w.Bodies) || len(l.GeomAddr) != len(w.Geoms) {
		t.Fatal("layout entity counts wrong")
	}
	for i := 1; i < len(l.BodyAddr); i++ {
		if l.BodyAddr[i] != l.BodyAddr[i-1]+BodyBytes {
			t.Fatalf("bodies not allocated contiguously at %d", i)
		}
	}
	// Region bases keep classes apart.
	if l.BodyAddr[len(l.BodyAddr)-1]+BodyBytes > l.GeomAddr[0] {
		t.Error("body region overlaps geom region")
	}
	for i := 1; i < len(l.JointAddr); i++ {
		if l.JointAddr[i] != l.JointAddr[i-1]+uint64(l.JointSize[i-1]) {
			t.Fatalf("joints not packed at %d", i)
		}
	}
	if len(l.ClothBase) != 1 || l.ClothVerts[0] != 25 {
		t.Errorf("cloth layout: %v %v", l.ClothBase, l.ClothVerts)
	}
}

func TestJointBytesWithinPaperRange(t *testing.T) {
	bs := sampleWorld().Bodies
	js := []joint.Joint{
		joint.NewBall(bs, 0, 1, m3.Zero),
		joint.NewHinge(bs, 0, 1, m3.Zero, m3.V(0, 0, 1)),
		joint.NewSlider(bs, 0, 1, m3.Zero, m3.V(1, 0, 0)),
		joint.NewFixed(bs, 0, 1, m3.Zero),
	}
	for _, j := range js {
		sz := JointBytes(j)
		if sz < JointMinBytes || sz > JointMaxBytes {
			t.Errorf("%T footprint %d outside paper range [%d, %d]",
				j, sz, JointMinBytes, JointMaxBytes)
		}
	}
	// Breakable adds bookkeeping on top of the wrapped joint.
	br := joint.NewBreakable(joint.NewBall(bs, 0, 1, m3.Zero), 1, 0)
	if JointBytes(br) <= JointBytes(joint.NewBall(bs, 0, 1, m3.Zero)) {
		t.Error("breakable wrapper should cost more than its inner joint")
	}
}

func TestThreadBasesDisjoint(t *testing.T) {
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			if ThreadBase(a) == ThreadBase(b) {
				t.Fatalf("threads %d and %d share a base", a, b)
			}
		}
	}
	w := sampleWorld()
	l := NewLayout(w)
	// Thread regions sit above all entity regions.
	top := l.ClothBase[0] + uint64(l.ClothVerts[0]*ParticleBytes)
	if ThreadBase(0) <= top {
		t.Error("thread regions overlap entity heap")
	}
}

// Ref is one emitted memory reference: a simulated address plus intent.
type Ref struct {
	Addr  uint64
	Write bool
}

// captureRefs runs a trace generator and collects the emitted refs.
func captureRefs(emit func(Stream)) []Ref {
	var out []Ref
	emit(func(addr uint64, write bool) {
		out = append(out, Ref{Addr: addr, Write: write})
	})
	return out
}

func recordedWorld(t *testing.T) (*world.World, *world.StepProfile, *Layout) {
	t.Helper()
	w := sampleWorld()
	w.RecordDetail = true
	for i := 0; i < 5; i++ {
		w.Step()
	}
	prof := w.Profile
	return w, &prof, NewLayout(w)
}

func TestBroadphaseTraceTouchesGeoms(t *testing.T) {
	w, prof, l := recordedWorld(t)
	refs := captureRefs(func(s Stream) { l.BroadphaseTrace(w, prof, s) })
	if len(refs) == 0 {
		t.Fatal("empty broadphase trace")
	}
	// Every enabled geom's record must be touched, with writes (AABB
	// refresh).
	seen := map[uint64]bool{}
	writes := 0
	for _, r := range refs {
		seen[r.Addr&^63] = true
		if r.Write {
			writes++
		}
	}
	for gi, g := range w.Geoms {
		if !g.Enabled() {
			continue
		}
		if !seen[l.GeomAddr[gi]&^63] {
			t.Errorf("geom %d untouched by broadphase trace", gi)
		}
	}
	if writes == 0 {
		t.Error("broadphase trace has no writes")
	}
}

func TestNarrowphaseTraceFollowsPairs(t *testing.T) {
	w, prof, l := recordedWorld(t)
	if len(prof.PairList) == 0 {
		t.Skip("no pairs this step")
	}
	refs := captureRefs(func(s Stream) { l.NarrowphaseTrace(w, prof, s) })
	seen := map[uint64]bool{}
	for _, r := range refs {
		seen[r.Addr&^63] = true
	}
	for _, pr := range prof.PairList {
		if !seen[l.GeomAddr[pr.A]&^63] || !seen[l.GeomAddr[pr.B]&^63] {
			t.Fatalf("pair (%d,%d) geoms untouched", pr.A, pr.B)
		}
	}
}

func TestIslandSweepCoversRowsAndBodies(t *testing.T) {
	w, prof, l := recordedWorld(t)
	refs := captureRefs(func(s Stream) { l.IslandSweep(w, prof, s) })
	steady := captureRefs(func(s Stream) { l.IslandSweepSteady(w, prof, s) })
	if len(refs) == 0 || len(steady) == 0 {
		t.Fatal("empty island traces")
	}
	// The steady sweep is a strict subset in volume: bodies only.
	if len(steady) >= len(refs) {
		t.Errorf("steady sweep (%d refs) should be smaller than cold (%d)",
			len(steady), len(refs))
	}
	// Steady refs are all within the body region.
	for _, r := range steady {
		if r.Addr < l.BodyAddr[0] || r.Addr >= l.GeomAddr[0] {
			t.Fatalf("steady sweep touched non-body address %#x", r.Addr)
		}
	}
}

func TestClothSweep(t *testing.T) {
	w, prof, l := recordedWorld(t)
	refs := captureRefs(func(s Stream) { l.ClothSweep(w, prof, s) })
	want := (25*ParticleBytes + 63) / 64
	if len(refs) < want {
		t.Errorf("cloth sweep %d refs, want >= %d", len(refs), want)
	}
}

func TestSizeOfWorld(t *testing.T) {
	w := sampleWorld()
	l := NewLayout(w)
	sz := l.SizeOfWorld()
	min := len(w.Bodies)*BodyBytes + len(w.Geoms)*GeomBytes
	if sz < min {
		t.Errorf("SizeOfWorld = %d, want >= %d", sz, min)
	}
}
