package replay

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/workload"
)

// TestFlightBundleReplaysToDivergentStep pins the flight-recorder
// round trip of a replay divergence: VerifyToBundle returns the
// divergent step and bundles the snapshot plus the digests up to (and
// including) it, and replaying the bundle's recording from disk
// re-diverges at exactly the same step on any thread count.
func TestFlightBundleReplaysToDivergentStep(t *testing.T) {
	rec := record(t, 20)

	// Inject a divergence the way paraxsim -inject does.
	const bad = 7
	rec.Digests[bad] ^= 0x1
	div, bundle, err := VerifyToBundle(rec, 2, t.TempDir())
	if err == nil {
		t.Fatal("corrupted recording verified clean")
	}
	if div != bad {
		t.Fatalf("diverged at step %d, want %d", div, bad)
	}
	if filepath.Base(bundle) != "flight-step7-replay_divergence" {
		t.Fatalf("bundle written to %q", bundle)
	}

	// Round trip through the bundle file: the reloaded recording must
	// re-diverge at the same step, at any thread count.
	loaded, err := Load(filepath.Join(bundle, "replay.paxr"))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Digests) != bad+1 {
		t.Fatalf("bundle recording holds %d digests, want %d", len(loaded.Digests), bad+1)
	}
	for _, threads := range []int{1, 8} {
		div2, err := Verify(loaded, threads)
		if err == nil {
			t.Fatalf("threads=%d: bundle recording verified clean", threads)
		}
		if div2 != bad {
			t.Fatalf("threads=%d: bundle replay diverged at %d, want %d", threads, div2, bad)
		}
	}

	// Without a flight directory, and for a clean recording, there is no
	// bundle.
	if _, bundle, err := VerifyToBundle(rec, 2, ""); err == nil || bundle != "" {
		t.Fatalf("no flightdir: bundle %q, err %v", bundle, err)
	}
	rec.Digests[bad] ^= 0x1
	if div, bundle, err := VerifyToBundle(rec, 2, t.TempDir()); err != nil || div != -1 || bundle != "" {
		t.Fatalf("clean recording: div %d, bundle %q, err %v", div, bundle, err)
	}
}

// TestTripBundleReTrips pins the detector-trip black box paraxsim -nan
// exercises: a NaN injected into body state trips obs.Health, the trip
// bundle holds all six files, and a world restored from the bundle's
// recording re-trips on its first step.
func TestTripBundleReTrips(t *testing.T) {
	b, _ := workload.ByName("Mix")
	w := b.Build(0.25)
	tr, reg := obs.NewTracer(), obs.NewRegistry()
	series, health := obs.NewSeries(64), obs.NewHealth()
	w.SetObs(tr, reg, "engine/Mix")
	w.SetSeries(series)
	w.SetHealth(health)
	for i := 0; i < 3; i++ {
		w.Step()
	}
	if health.Tripped() {
		t.Fatal("detector tripped on a healthy run")
	}
	w.Bodies[0].LinVel.X = math.NaN()
	w.Step()
	st := health.Status()
	if st.OK || st.Cause != obs.CauseNaN {
		t.Fatalf("status after NaN = %+v", st)
	}

	info := obs.FlightInfo{Cause: st.Cause.String(), Step: st.Step, Label: "Mix"}
	bundle, err := WriteTripBundle(t.TempDir(), info, w, tr, reg, series)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cause.txt", "world.paxw", "trace.json", "metrics.txt", "series.json", "replay.paxr"} {
		if fi, err := os.Stat(filepath.Join(bundle, name)); err != nil || fi.Size() == 0 {
			t.Errorf("bundle file %s: %v (empty or missing)", name, err)
		}
	}

	rec, err := Load(filepath.Join(bundle, "replay.paxr"))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := rec.World()
	if err != nil {
		t.Fatal(err)
	}
	health2 := obs.NewHealth()
	w2.SetHealth(health2)
	w2.Step()
	if !health2.Tripped() {
		t.Fatal("world restored from the trip bundle did not re-trip on its first step")
	}
	if _, err := Verify(rec, 8); err != nil {
		t.Fatalf("bundle recording does not verify: %v", err)
	}
}
