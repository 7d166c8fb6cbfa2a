package world

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/broadphase"
	"github.com/parallax-arch/parallax/internal/phys/cloth"
	"github.com/parallax-arch/parallax/internal/phys/enc"
	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/joint"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

// snapWorld builds a scene that exercises every snapshot section:
// stacked bodies, a hinge and a breakable fixed joint accumulating
// fatigue, pinned cloth, an explosive that detonates within a few
// steps (creating a blast and consuming its spec), a prefractured
// brick with debris, warm starting, and sleeping enabled.
func snapWorld(threads int) *World {
	w := detWorld(threads)
	w.WarmStart = true
	w.EnableSleep = true

	a, _ := w.AddBody(geom.Box{Half: m3.V(0.2, 0.2, 0.2)}, 1, m3.V(-4, 0.2, 2), m3.QIdent, 0, 0)
	b, _ := w.AddBody(geom.Box{Half: m3.V(0.2, 0.2, 0.2)}, 1, m3.V(-4, 0.65, 2), m3.QIdent, 0, 0)
	w.AddJoint(joint.NewBreakable(
		joint.NewFixed(w.Bodies, a, b, m3.V(-4, 0.4, 2)), 0, 1e5))

	_, pg := w.AddBody(geom.Box{Half: m3.V(0.4, 0.4, 0.4)}, 4, m3.V(5, 0.4, 2), m3.QIdent, 0, 0)
	var debris []int32
	for i := 0; i < 2; i++ {
		off := m3.V(5+float64(i)*0.4-0.2, 0.6, 2)
		_, dg := w.AddBody(geom.Box{Half: m3.V(0.2, 0.2, 0.2)}, 1, off, m3.QIdent, geom.FlagDebris, 0)
		w.DisableBodyGeom(dg)
		debris = append(debris, dg)
	}
	w.RegisterFracture(pg, debris)

	_, bomb := w.AddBody(geom.Sphere{R: 0.2}, 1, m3.V(5.6, 0.3, 2), m3.QIdent, 0, 0)
	w.MarkExplosive(bomb, ExplosiveSpec{Radius: 2, Duration: 0.2, Impulse: 15})
	return w
}

// TestSnapshotRoundTripIdentity: decoding a snapshot into a fresh world
// and re-encoding must reproduce the exact bytes, including mid-run
// state with live blasts, consumed explosives, broken fractures and a
// populated warm-start cache.
func TestSnapshotRoundTripIdentity(t *testing.T) {
	w := snapWorld(2)
	for i := 0; i < 40; i++ {
		w.Step()
	}
	s1 := w.Snapshot()
	w2 := New()
	if err := w2.Restore(s1); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	s2 := w2.Snapshot()
	if !bytes.Equal(s1, s2) {
		t.Fatalf("snapshot not byte-stable through a restore round trip (%d vs %d bytes)", len(s1), len(s2))
	}

	// The bytes themselves are pinned to what the engine wrote while the
	// warm-start impulses still lived in a map keyed by (pair, ordinal)
	// that Snapshot sorted: the flat list kept in contact order must be
	// the same 58 entries in the same order, and must have warm-started
	// the same rows on the way here.
	if len(w.warm) != 58 {
		t.Errorf("%d warm-start entries after 40 steps, want 58", len(w.warm))
	}
	if runtime.GOARCH != "amd64" {
		t.Logf("snapshot CRC not compared on %s: the constant was taken on amd64, and other ports may fuse or round floating-point operations differently", runtime.GOARCH)
	} else if got := crc32.ChecksumIEEE(s1); len(s1) != 21353 || got != 558161692 {
		t.Errorf("warm-started snapshot is %d bytes, CRC-32 %d; want 21353 bytes, CRC-32 558161692", len(s1), got)
	}
	// The same bytes also pin that a cloth's Constraints are encoded in
	// input order: this one has relaxed 40 times, sweeping them in its
	// wavefront schedule's order, and neither it nor its restored twin may
	// have had the list itself permuted.
	input := cloth.NewGrid(6, 6, 0.2, m3.V(-3, 2, -2), 0.5).Constraints // detWorld's cloth
	for _, c := range []*cloth.Cloth{w.Cloths[0], w2.Cloths[0]} {
		if !slices.Equal(c.Constraints, input) {
			t.Error("a relaxed cloth's Constraints are no longer in input order")
		}
	}
}

// TestSnapshotRestoreContinuesBitIdentical: Restore(Snapshot(w)) + N
// steps must match stepping w uninterrupted, profile digest by profile
// digest and byte for byte, at several thread counts — including a
// restored thread count different from the recording one.
func TestSnapshotRestoreContinuesBitIdentical(t *testing.T) {
	for _, threads := range []int{1, 3, 8} {
		w := snapWorld(2)
		for i := 0; i < 25; i++ {
			w.Step()
		}
		w2 := New()
		w2.SetThreads(threads)
		if err := w2.Restore(w.Snapshot()); err != nil {
			t.Fatalf("threads=%d: Restore: %v", threads, err)
		}
		for i := 0; i < 60; i++ {
			w.Step()
			w2.Step()
			if w.Profile.Digest() != w2.Profile.Digest() {
				t.Fatalf("threads=%d: profile diverged at step %d after restore", threads, i)
			}
		}
		if !bytes.Equal(w.Snapshot(), w2.Snapshot()) {
			t.Fatalf("threads=%d: state diverged after 60 post-restore steps", threads)
		}
	}
}

// TestSnapshotPreservesEventState checks the event-system state
// explicitly: breakable fatigue, consumed explosive specs, live blast
// hit sets and fracture flags all survive the round trip.
func TestSnapshotPreservesEventState(t *testing.T) {
	w := snapWorld(1)
	detonated := false
	for i := 0; i < 60 && !detonated; i++ {
		w.Step()
		detonated = w.Profile.Explosions > 0
	}
	if !detonated {
		t.Fatal("bomb never detonated; scene no longer exercises blasts")
	}
	// One more step so the blast has applied hits but is still alive.
	w.Step()

	w2 := New()
	if err := w2.Restore(w.Snapshot()); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if len(w2.Explosives) != len(w.Explosives) {
		t.Errorf("explosive specs: got %d, want %d", len(w2.Explosives), len(w.Explosives))
	}
	if len(w2.Blasts) != len(w.Blasts) {
		t.Fatalf("blasts: got %d, want %d", len(w2.Blasts), len(w.Blasts))
	}
	for i := range w.Blasts {
		if len(w2.Blasts[i].hit) != len(w.Blasts[i].hit) {
			t.Errorf("blast %d hit set: got %d, want %d", i, len(w2.Blasts[i].hit), len(w.Blasts[i].hit))
		}
	}
	var br, br2 *joint.Breakable
	for ji := range w.Joints {
		if b, ok := w.Joints[ji].(*joint.Breakable); ok {
			br = b
			br2 = w2.Joints[ji].(*joint.Breakable)
			break
		}
	}
	if br == nil {
		t.Fatal("no breakable joint in scene")
	}
	if br.Fatigue == 0 {
		t.Error("breakable joint accumulated no fatigue; scene no longer exercises fatigue")
	}
	if br2.Fatigue != br.Fatigue || br2.Broken != br.Broken {
		t.Errorf("breakable state: got (%v, %v), want (%v, %v)", br2.Fatigue, br2.Broken, br.Fatigue, br.Broken)
	}
	for i := range w.Bodies {
		if w2.Bodies[i].Asleep != w.Bodies[i].Asleep || w2.Bodies[i].SleepClock() != w.Bodies[i].SleepClock() {
			t.Errorf("body %d sleep state not preserved", i)
		}
	}
}

// TestSnapshotRejectsCorruption: a flipped byte anywhere fails the
// checksum; truncation, bad magic and unknown versions all error
// without mutating the target world.
func TestSnapshotRejectsCorruption(t *testing.T) {
	w := snapWorld(1)
	for i := 0; i < 10; i++ {
		w.Step()
	}
	snap := w.Snapshot()

	fresh := func() *World {
		nw := New()
		if err := nw.Restore(snap); err != nil {
			t.Fatalf("Restore of pristine snapshot: %v", err)
		}
		return nw
	}
	target := fresh()
	want := target.Snapshot()

	for _, off := range []int{0, 4, len(snap) / 2, len(snap) - 1} {
		bad := append([]byte(nil), snap...)
		bad[off] ^= 0x40
		if err := target.Restore(bad); err == nil {
			t.Errorf("corruption at byte %d not detected", off)
		}
	}
	if err := target.Restore(snap[:8]); err == nil {
		t.Error("truncated snapshot not detected")
	}
	if err := target.Restore(nil); err == nil {
		t.Error("empty snapshot not detected")
	}
	if !bytes.Equal(target.Snapshot(), want) {
		t.Error("failed Restore mutated the world")
	}
}

// TestRestoreRejectsHostileState: snapshots that pass the checksum but
// carry state a later Step would trip over must fail Restore with a named
// error and leave the target alone. Each case is crafted by corrupting a
// live world and letting Snapshot seal it. The first three used to
// restore cleanly and panic a step or so later — a staged slot becomes a
// free one when the step ends and detonate stores a blast volume at
// w.Geoms[slot]; blastHit reads the radius off the volume's shape — and
// a duplicated warm-start entry used to overwrite its twin silently. An
// iteration count of 2^31-1 used to restore cleanly too, and the first
// Step after it never returned. The cases from the cloth proxies down
// restored cleanly until the format became one walk that ranges each
// field where it names it.
func TestRestoreRejectsHostileState(t *testing.T) {
	w := snapWorld(1)
	for i := 0; i < 60 && (len(w.Blasts) == 0 || len(w.warm) < 2); i++ {
		w.Step()
	}
	if len(w.Blasts) == 0 || len(w.warm) < 2 {
		t.Fatalf("scene has %d blasts and %d warm-start entries; the cases below need a live blast and two entries", len(w.Blasts), len(w.warm))
	}
	pristine := w.Snapshot()

	for _, tc := range []struct {
		name    string
		corrupt func(w *World)
		want    string
	}{
		{"staged free slot out of range", func(w *World) {
			w.geomFreeStaged = append(w.geomFreeStaged, int32(len(w.Geoms)))
		}, "staged free geom slot"},
		{"blast on a box", func(w *World) {
			w.Blasts[0].Geom = 1 // the first stacked box
		}, "not a blast volume"},
		{"blast on an unflagged sphere", func(w *World) {
			w.Geoms[w.Blasts[0].Geom].Flags &^= geom.FlagBlast
		}, "not a blast volume"},
		{"warm-start entries out of order", func(w *World) {
			w.warm[0], w.warm[1] = w.warm[1], w.warm[0]
		}, "out of order or duplicated"},
		{"warm-start entry duplicated", func(w *World) {
			w.warm[1] = w.warm[0]
		}, "out of order or duplicated"},
		{"solver iterations unbounded", func(w *World) {
			w.Solver.Iterations = math.MaxInt32
		}, "solver iteration count"},
		{"cloth iterations unbounded", func(w *World) {
			w.Cloths[0].Iterations = math.MaxInt32
		}, "cloth 0 iteration count"},
		{"cloth iterations negative", func(w *World) {
			w.Cloths[0].Iterations = -1
		}, "cloth 0 iteration count"},
		// The narrow phase indexes clothContacts and Cloths with the Aux of
		// whatever geom carries FlagCloth, on the first contact.
		{"cloth proxy names cloth 7", func(w *World) {
			w.Geoms[w.clothProxy[0]].Aux = 7
		}, "cloth 0 proxy geom"},
		{"cloth proxy names cloth -1", func(w *World) {
			w.Geoms[w.clothProxy[0]].Aux = -1
		}, "cloth 0 proxy geom"},
		{"a second geom flagged as a cloth proxy", func(w *World) {
			w.Geoms[1].Flags |= geom.FlagCloth
		}, "flagged as cloth proxies"},
		{"blast hit set names cloth 5", func(w *World) {
			w.Blasts[0].hitCloth[5] = true
		}, "hit cloth 5"},
		// A geom listed twice pairs with itself and doubles its other
		// pairs on every step from then on.
		{"sweep order lists a geom twice", func(w *World) {
			sap := w.Broad.(*broadphase.SweepAndPrune)
			sap.RestoreOrder(append(sap.SaveOrder(nil), 1))
		}, "lists geom 1 twice"},
		// HeightAt reads Heights[-2] of a field with no cell once a body
		// lands on it.
		{"height field 1x1", func(w *World) {
			w.AddStatic(geom.NewHeightField(1, 1, 1, 1, []float64{0}), m3.V(20, 0, 20), m3.QIdent)
		}, "heightfield NX 1"},
		{"height field 0x0", func(w *World) {
			w.AddStatic(geom.NewHeightField(0, 0, 1, 1, nil), m3.V(20, 0, 20), m3.QIdent)
		}, "heightfield NX 0"},
		// export.WriteOBJ indexes Particles with these.
		{"cloth triangle past its particles", func(w *World) {
			w.Cloths[0].Tris[3][2] = int32(len(w.Cloths[0].Particles))
		}, "cloth 0 triangle 3 vertex 36"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, target := New(), New()
			for _, nw := range []*World{src, target} {
				if err := nw.Restore(pristine); err != nil {
					t.Fatalf("Restore of the pristine snapshot: %v", err)
				}
			}
			tc.corrupt(src)
			err := target.Restore(src.Snapshot())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore = %v, want an error naming %q", err, tc.want)
			}
			if !bytes.Equal(target.Snapshot(), pristine) {
				t.Error("failed Restore mutated the world")
			}
		})
	}
}

// TestRestoreRejectsRetiredBroadphaseTags: broadphase tags 1, 2 and 3
// once carried a spatial hash's cell size, brute force's empty section
// and IncrementalSAP's endpoint order and pair set. All three are
// retired, so Restore must fail naming the tag — not panic, not guess at
// the section's length — and leave the target world alone.
// testdata/incsap-tag3.paxw is a small world stepped 10 times on
// IncrementalSAP, written when the format still carried tag 3; tags 1
// and 2 are a bpOther snapshot with its tag byte rewritten and resealed.
func TestRestoreRejectsRetiredBroadphaseTags(t *testing.T) {
	tag3, err := os.ReadFile("testdata/incsap-tag3.paxw")
	if err != nil {
		t.Fatal(err)
	}
	retag := func(tag byte) []byte {
		src := snapWorld(1)
		src.Broad = broadphase.NewBruteForce()
		src.Step()
		snap := src.Snapshot()
		end := len(snap) - 4 // the tag is the last byte before the CRC
		if snap[end-1] != bpOther {
			t.Fatalf("tag byte = %d, want bpOther", snap[end-1])
		}
		snap[end-1] = tag
		binary.LittleEndian.PutUint32(snap[end:], crc32.ChecksumIEEE(snap[:end]))
		return snap
	}
	for _, tc := range []struct {
		tag  int
		data []byte
	}{{1, retag(1)}, {2, retag(2)}, {3, tag3}} {
		t.Run(fmt.Sprintf("tag%d", tc.tag), func(t *testing.T) {
			target := snapWorld(1)
			for i := 0; i < 10; i++ {
				target.Step()
			}
			want := target.Snapshot()
			err := target.Restore(tc.data)
			if name := fmt.Sprintf("broadphase tag %d", tc.tag); err == nil || !strings.Contains(err.Error(), name) {
				t.Fatalf("Restore = %v, want an error naming %s", err, name)
			}
			if !bytes.Equal(target.Snapshot(), want) {
				t.Error("failed Restore mutated the world")
			}
		})
	}
}

// TestCloneIndependent: a clone shares no mutable state — stepping it
// must leave the original's snapshot untouched, and both worlds step
// identically from the fork point.
func TestCloneIndependent(t *testing.T) {
	w := snapWorld(2)
	for i := 0; i < 20; i++ {
		w.Step()
	}
	before := w.Snapshot()
	cl, err := w.Clone()
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}
	if cl.threads != w.threads || (cl.pool == nil) != (w.pool == nil) {
		t.Errorf("clone threads = %d (pool %t), want %d (pool %t)", cl.threads, cl.pool != nil, w.threads, w.pool != nil)
	}
	for i := 0; i < 30; i++ {
		cl.Step()
	}
	if !bytes.Equal(w.Snapshot(), before) {
		t.Fatal("stepping the clone mutated the original")
	}
	for i := 0; i < 30; i++ {
		w.Step()
	}
	if !bytes.Equal(w.Snapshot(), cl.Snapshot()) {
		t.Fatal("original and clone diverged while stepping the same inputs")
	}
}

// TestSnapshotCloth: a cloth mid-flight (nonzero implied Verlet
// velocity) restores bit-identically, including the proxy geom
// aliasing that the per-step resize mutates through.
func TestSnapshotCloth(t *testing.T) {
	w := groundWorld()
	c := cloth.NewGrid(8, 8, 0.2, m3.V(-0.7, 2, -0.7), 0.5)
	c.PinParticle(0)
	w.AddCloth(c)
	bi, _ := w.AddBody(geom.Sphere{R: 0.3}, 1, m3.V(0, 3.5, 0), m3.QIdent, 0, 0)
	w.Bodies[bi].LinVel = m3.V(0, -2, 0)
	for i := 0; i < 30; i++ {
		w.Step()
	}
	w2 := New()
	if err := w2.Restore(w.Snapshot()); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for i := 0; i < 60; i++ {
		w.Step()
		w2.Step()
	}
	if !bytes.Equal(w.Snapshot(), w2.Snapshot()) {
		t.Fatal("cloth state diverged after restore")
	}
	// The restored proxy must alias the cloth box: stepping must keep
	// resizing it (regression for the pointer re-establishment).
	gi := w2.clothProxy[0]
	if _, ok := w2.Geoms[gi].Shape.(*geom.Box); !ok {
		t.Fatalf("restored cloth proxy shape is %T, want *geom.Box", w2.Geoms[gi].Shape)
	}
	if w2.clothProxyShape[0] != w2.Geoms[gi].Shape.(*geom.Box) {
		t.Fatal("restored cloth proxy shape does not alias the proxy geom's shape")
	}
}

// TestRestoreBoundsAllocation: a length prefix is bounded by what the
// bytes after it could hold, not merely by how many there are. The
// input is a valid header and parameter block, then a body count equal
// to the 4 MiB of zero padding that follows, sealed: with the count
// bounded by bytes alone Restore made 4 M bodies — 1.4 GiB — before it
// met the end of the buffer.
func TestRestoreBoundsAllocation(t *testing.T) {
	const padding = 4 << 20
	empty := New().Snapshot()
	const params = 8 + 24 + 3*8 + 2 + 8 + 4 + 8 // frame header, then gravity to the solver's SOR
	in := append([]byte(nil), empty[:params]...)
	in = binary.LittleEndian.AppendUint32(in, padding)
	in = append(in, make([]byte, padding)...)
	in = binary.LittleEndian.AppendUint32(in, crc32.ChecksumIEEE(in))

	w := New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := w.Restore(in)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, enc.ErrShort) {
		t.Fatalf("Restore = %v, want enc.ErrShort", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*uint64(len(in)) {
		t.Fatalf("Restore of %d bytes allocated %d", len(in), got)
	}
	if !bytes.Equal(w.Snapshot(), empty) {
		t.Error("failed Restore mutated the world")
	}
}

// TestSnapshotConcurrent: Snapshot only reads the world, so it may run
// beside itself and beside queries. Two goroutines snapshot one stepped
// world while a third casts rays; under -race this turns red if a
// storing walk ever writes through a field pointer.
func TestSnapshotConcurrent(t *testing.T) {
	w := snapWorld(2)
	for i := 0; i < 40; i++ {
		w.Step()
	}
	want := w.Snapshot()
	// All three are counted before any starts: a WaitGroup's counter is
	// an atomic, and one goroutine finishing before the next is added
	// would order their accesses for the race detector.
	var wg sync.WaitGroup
	wg.Add(3)
	for g := 0; g < 2; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if !bytes.Equal(w.Snapshot(), want) {
					t.Error("concurrent Snapshot produced different bytes")
					return
				}
			}
		}()
	}
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			w.RayCast(m3.V(float64(i%9)-4, 6, 0), m3.V(0, -1, 0), 10)
		}
	}()
	wg.Wait()
}
