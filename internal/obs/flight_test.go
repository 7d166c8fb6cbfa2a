package obs

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// feedSteady fills the detector's trailing windows with a calm signal.
func feedSteady(h *Health, steps int) int64 {
	var step int64
	for i := 0; i < steps; i++ {
		step++
		h.Update(step, Sample{KineticEnergy: 100, Finite: true, Residual: 10})
	}
	return step
}

func TestHealthNaNTrips(t *testing.T) {
	h := NewHealth()
	step := feedSteady(h, 3) // no window needed for the NaN check
	if h.Tripped() {
		t.Fatal("tripped on steady samples")
	}
	if !h.Update(step+1, Sample{KineticEnergy: 100, Finite: false, Residual: 10}) {
		t.Fatal("non-finite body state did not trip")
	}
	st := h.Status()
	if st.OK || st.Cause != CauseNaN || st.Step != step+1 {
		t.Fatalf("status = %+v", st)
	}
	// NaN kinetic energy alone also trips.
	h2 := NewHealth()
	if !h2.Update(1, Sample{KineticEnergy: math.NaN(), Finite: true}) {
		t.Fatal("NaN energy did not trip")
	}
}

func TestHealthEnergySpikeTrips(t *testing.T) {
	h := NewHealth()
	step := feedSteady(h, healthWindow)
	if !h.Update(step+1, Sample{KineticEnergy: 100 * energySpikeRatio * 2, Finite: true, Residual: 10}) {
		t.Fatal("energy spike did not trip")
	}
	if st := h.Status(); st.Cause != CauseEnergy {
		t.Fatalf("cause = %v, want %v", st.Cause, CauseEnergy)
	}
}

func TestHealthResidualBlowupTrips(t *testing.T) {
	h := NewHealth()
	step := feedSteady(h, healthWindow)
	if !h.Update(step+1, Sample{KineticEnergy: 100, Finite: true, Residual: 10 * residualSpikeRatio * 2}) {
		t.Fatal("residual blowup did not trip")
	}
	if st := h.Status(); st.Cause != CauseResidual {
		t.Fatalf("cause = %v, want %v", st.Cause, CauseResidual)
	}
}

// TestHealthTrippedWhileUpdating polls the lock-free latch while another
// goroutine feeds the detector until it trips: once Tripped reports the
// latch, Status must already name the cause. Run it under -race.
func TestHealthTrippedWhileUpdating(t *testing.T) {
	h := NewHealth()
	done := make(chan struct{})
	go func() {
		defer close(done)
		step := int64(0)
		for !h.Update(step, Sample{KineticEnergy: 100, Finite: step < 4*healthWindow, Residual: 10}) {
			step++
		}
	}()
	for !h.Tripped() {
		runtime.Gosched()
	}
	if st := h.Status(); st.OK || st.Cause != CauseNaN || st.Step != 4*healthWindow {
		t.Fatalf("status after Tripped = %+v, want a NaN trip at step %d", st, 4*healthWindow)
	}
	<-done
}

func TestHealthSpikeChecksNeedFullWindow(t *testing.T) {
	// Settling transients: huge ratios in the first few steps (scene
	// drop, first contact) must not trip before the window fills.
	h := NewHealth()
	if h.Update(1, Sample{KineticEnergy: 1, Finite: true, Residual: 1}) {
		t.Fatal("tripped on first sample")
	}
	if h.Update(2, Sample{KineticEnergy: 1e12, Finite: true, Residual: 1e12}) {
		t.Fatal("tripped during window fill")
	}
}

func TestHealthQuietSceneBelowFloorNeverTrips(t *testing.T) {
	h := NewHealth()
	var step int64
	for i := 0; i < healthWindow+8; i++ {
		step++
		// Resting scene: energies way below energyFloor. Any ratio of
		// near-zero to near-zero is noise, not an anomaly.
		if h.Update(step, Sample{KineticEnergy: 1e-9, Finite: true, Residual: 1e-9}) {
			t.Fatalf("tripped on a resting scene at step %d: %+v", step, h.Status())
		}
	}
	if h.Update(step+1, Sample{KineticEnergy: 1e-3, Finite: true, Residual: 1e-9}) {
		t.Fatal("sub-floor energy ratio tripped")
	}
}

func TestHealthLatches(t *testing.T) {
	h := NewHealth()
	h.Update(1, Sample{Finite: false})
	if !h.Tripped() {
		t.Fatal("did not trip")
	}
	// Healthy samples after the trip do not clear it.
	h.Update(2, Sample{KineticEnergy: 1, Finite: true})
	st := h.Status()
	if st.OK || st.Step != 1 {
		t.Fatalf("trip did not latch: %+v", st)
	}
}

func TestHealthNilSafety(t *testing.T) {
	var h *Health
	if h.Update(1, Sample{Finite: false}) || h.Tripped() {
		t.Fatal("nil detector must never trip")
	}
	if st := h.Status(); !st.OK {
		t.Fatal("nil detector must report OK")
	}
}

func TestHealthUpdateAllocFree(t *testing.T) {
	h := NewHealth()
	var step int64
	allocs := testing.AllocsPerRun(200, func() {
		step++
		h.Update(step, Sample{KineticEnergy: 100, Finite: true, Residual: 10})
	})
	if allocs != 0 {
		t.Fatalf("Health.Update allocates %v per step, want 0", allocs)
	}
}

func TestWriteFlightBundle(t *testing.T) {
	dir := t.TempDir()
	tr := NewTracer()
	l := tr.Lane("main", 64)
	id := tr.Span("step")
	l.Begin(id)
	l.End(id)
	reg := NewRegistry()
	reg.Add(reg.Counter("engine/steps"), 7)
	s := NewSeries(64)
	ke := s.Channel("kinetic_energy")
	s.Set(ke, math.NaN())
	s.Advance()

	snapshot := []byte("PAXW-not-really")
	bundle, err := WriteFlightBundle(dir,
		FlightInfo{Cause: CauseNaN.String(), Step: 123, Label: "Mix"},
		snapshot, tr, reg, s)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(bundle) != "flight-step123-nan_state" {
		t.Fatalf("bundle dir = %s", bundle)
	}

	read := func(name string) string {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(bundle, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	cause := read("cause.txt")
	for _, want := range []string{"cause nan_state\n", "step 123\n", "label Mix\n"} {
		if !strings.Contains(cause, want) {
			t.Errorf("cause.txt missing %q:\n%s", want, cause)
		}
	}
	if got := read("world.paxw"); got != string(snapshot) {
		t.Errorf("world.paxw = %q", got)
	}
	if !json.Valid([]byte(read("trace.json"))) {
		t.Error("trace.json is not valid JSON")
	}
	if !json.Valid([]byte(read("series.json"))) {
		t.Error("series.json is not valid JSON (NaN leaked as a bare token?)")
	}
	metrics := read("metrics.txt")
	if !strings.Contains(metrics, "counter engine/steps 7") {
		t.Errorf("metrics.txt missing counter:\n%s", metrics)
	}
	// WriteFlightBundle publishes the tracer totals into the snapshot.
	if !strings.Contains(metrics, "trace/span/step/count") {
		t.Errorf("metrics.txt missing published span totals:\n%s", metrics)
	}
}

// TestFlightBundleLeavesRegistryUnchanged: the bundle's tracer totals
// must not leak into the run's registry, whose snapshot the -metrics
// file writes after a trip.
func TestFlightBundleLeavesRegistryUnchanged(t *testing.T) {
	tr := NewTracer()
	l := tr.Lane("main", 64)
	id := tr.Span("step")
	l.Begin(id)
	l.End(id)
	reg := NewRegistry()
	reg.Add(reg.Counter("engine/steps"), 1)
	before := reg.Snapshot()
	bundle, err := WriteFlightBundle(t.TempDir(), FlightInfo{Cause: "nan_state", Step: 1}, nil, tr, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after := reg.Snapshot(); after != before {
		t.Fatalf("WriteFlightBundle changed the registry:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	metrics, err := os.ReadFile(filepath.Join(bundle, "metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(metrics), before) || !strings.Contains(string(metrics), "gauge trace/span/step/count 1\n") {
		t.Fatalf("metrics.txt is not the run's snapshot followed by the span totals:\n%s", metrics)
	}
}

func TestWriteFlightBundleNilComponents(t *testing.T) {
	dir := t.TempDir()
	bundle, err := WriteFlightBundle(dir,
		FlightInfo{Cause: "replay_divergence", Step: 5, Label: "x"},
		nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// No snapshot -> no world.paxw; the rest of the file set exists.
	if _, err := os.Stat(filepath.Join(bundle, "world.paxw")); !os.IsNotExist(err) {
		t.Error("world.paxw should be omitted without a snapshot")
	}
	for _, name := range []string{"cause.txt", "trace.json", "metrics.txt", "series.json"} {
		if _, err := os.Stat(filepath.Join(bundle, name)); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
}
