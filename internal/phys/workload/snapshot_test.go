package workload

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/broadphase"
	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// TestSnapshotRoundTripAllBenchmarks is the acceptance gate for the
// snapshot subsystem: for every paper benchmark, restoring a mid-run
// snapshot and stepping on must be bit-identical to the uninterrupted
// run — profile digest by profile digest and snapshot byte for byte —
// at 1 and 8 threads, regardless of the thread count that recorded it.
func TestSnapshotRoundTripAllBenchmarks(t *testing.T) {
	const (
		scale     = 0.25
		warmSteps = 15
		runSteps  = 30
	)
	for _, b := range All {
		for _, threads := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/threads=%d", b.Name, threads), func(t *testing.T) {
				w := b.Build(scale)
				w.Threads = 4
				for i := 0; i < warmSteps; i++ {
					w.Step()
				}
				w2 := world.New()
				w2.Threads = threads
				if err := w2.Restore(w.Snapshot()); err != nil {
					t.Fatalf("Restore: %v", err)
				}
				for i := 0; i < runSteps; i++ {
					w.Step()
					w2.Step()
					if w.Profile.Digest() != w2.Profile.Digest() {
						t.Fatalf("profile diverged at step %d after restore", i)
					}
				}
				if !bytes.Equal(w.Snapshot(), w2.Snapshot()) {
					t.Fatal("world state diverged after restore")
				}
			})
		}
	}
}

// TestSnapshotPreservesMetrics: two worlds forked via snapshot and given
// fresh metric registries must log identical metrics while stepping —
// the observable work stream, not just the end state, survives a
// restore.
func TestSnapshotPreservesMetrics(t *testing.T) {
	b, ok := ByName("Mix")
	if !ok {
		t.Fatal("Mix benchmark missing")
	}
	w := b.Build(0.25)
	w.Threads = 2
	for i := 0; i < 15; i++ {
		w.Step()
	}
	w2 := world.New()
	w2.Threads = 8
	if err := w2.Restore(w.Snapshot()); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	r1, r2 := obs.NewRegistry(), obs.NewRegistry()
	w.SetObs(nil, r1, "bench")
	w2.SetObs(nil, r2, "bench")
	for i := 0; i < 30; i++ {
		w.Step()
		w2.Step()
	}
	if s1, s2 := r1.Snapshot(), r2.Snapshot(); s1 != s2 {
		t.Fatalf("metrics diverged after restore:\n--- original ---\n%s\n--- restored ---\n%s", s1, s2)
	}
}

// FuzzRestore feeds World.Restore hostile PAXW bytes. The seed corpus
// is every paper scene at scale 0.25 plus a truncated and a bit-flipped
// copy of each, and five crafted snapshots that are well-formed up to
// one inconsistency. Each input is tried twice: as it is (mutations almost
// always die at the checksum) and with the CRC32 trailer re-sealed over
// the mutated payload, so the mutation reaches the format walk's own
// validation. Either way Restore must not panic, and a Restore that
// fails must leave the target world's Snapshot byte-identical. An
// input that restores is hostile until it has stepped: it goes into two
// fresh worlds that step three times, at 1 and at 3 threads, without a
// panic, and what they then Snapshot must Restore again.
func FuzzRestore(f *testing.F) {
	for _, b := range All {
		snap := b.Build(0.25).Snapshot()
		f.Add(snap)
		f.Add(snap[:len(snap)/2])
		flipped := bytes.Clone(snap)
		flipped[len(flipped)/3] ^= 0x10
		f.Add(flipped)
	}
	// Five sealed snapshots only the walk's own validation stops, checked
	// here to still reach it: a blast whose geom is no blast volume,
	// warm-start entries out of order, a cloth iteration count whose first
	// step would never return, a cloth proxy naming a cloth that does not
	// exist, and a sweep order listing a geom twice. (world's
	// TestRestoreRejectsHostileState has the cases that need unexported
	// state to craft.)
	for _, seed := range []struct {
		craft func() []byte
		want  string
	}{
		{func() []byte {
			w := BuildExplosions(0.25)
			for i := 0; i < 200 && len(w.Blasts) == 0; i++ {
				w.Step()
			}
			if len(w.Blasts) == 0 {
				f.Fatal("Explosions@0.25 detonated nothing in 200 steps")
			}
			w.Blasts[0].Geom = 0
			return w.Snapshot()
		}, "not a blast volume"},
		{func() []byte {
			w := BuildRagdoll(0.25)
			w.WarmStart = true
			w.Broad = broadphase.NewBruteForce() // no broad-phase state: the entries end 5 bytes from the end
			for i := 0; i < 200 && w.Profile.Contacts < 2; i++ {
				w.Step()
			}
			if w.Profile.Contacts < 2 {
				f.Fatal("Ragdoll@0.25 made no two contacts in 200 steps")
			}
			snap := w.Snapshot()
			const entry = 8 + 4 + 3*8 // pair, ordinal, three impulses
			end := len(snap) - 5
			last, prev := snap[end-entry:end], snap[end-2*entry:end-entry]
			for i := range last {
				last[i], prev[i] = prev[i], last[i]
			}
			binary.LittleEndian.PutUint32(snap[len(snap)-4:], crc32.ChecksumIEEE(snap[:len(snap)-4]))
			return snap
		}, "out of order or duplicated"},
		{func() []byte {
			w := BuildDeformable(0.25)
			w.Cloths[0].Iterations = math.MaxInt32
			return w.Snapshot()
		}, "iteration count"},
		{func() []byte {
			w := BuildDeformable(0.25)
			for _, g := range w.Geoms {
				if g.Flags.Has(geom.FlagCloth) {
					g.Aux = 7
					break
				}
			}
			return w.Snapshot()
		}, "proxy geom"},
		{func() []byte {
			w := BuildRagdoll(0.25)
			w.Step() // the first pass builds the order
			sap := w.Broad.(*broadphase.SweepAndPrune)
			sap.RestoreOrder(append(sap.SaveOrder(nil), 3))
			return w.Snapshot()
		}, "lists geom 3 twice"},
	} {
		snap := seed.craft()
		if err := world.New().Restore(snap); err == nil || !strings.Contains(err.Error(), seed.want) {
			f.Fatalf("crafted seed: Restore = %v, want an error naming %q", err, seed.want)
		}
		f.Add(snap)
	}
	ragdoll, _ := ByName("Ragdoll")
	want := ragdoll.Build(0.25).Snapshot()
	f.Fuzz(func(t *testing.T, data []byte) {
		resealed := bytes.Clone(data)
		if n := len(resealed) - 4; n >= 0 {
			binary.LittleEndian.PutUint32(resealed[n:], crc32.ChecksumIEEE(resealed[:n]))
		}
		for _, in := range [][]byte{data, resealed} {
			w := world.New()
			if err := w.Restore(want); err != nil {
				t.Fatalf("Restore of the pristine target: %v", err)
			}
			if err := w.Restore(in); err != nil {
				if !bytes.Equal(w.Snapshot(), want) {
					t.Fatalf("failed Restore (%v) mutated the world", err)
				}
				continue
			}
			for _, threads := range []int{1, 3} {
				w := world.New()
				w.Threads = threads
				if err := w.Restore(in); err != nil {
					t.Fatalf("second Restore of an accepted input: %v", err)
				}
				for i := 0; i < 3; i++ {
					w.Step()
				}
				if err := world.New().Restore(w.Snapshot()); err != nil {
					t.Fatalf("threads=%d: the stepped world's snapshot does not restore: %v", threads, err)
				}
			}
		}
	})
}
