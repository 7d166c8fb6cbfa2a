package world

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/parallax-arch/parallax/internal/obs"
)

// telWorld builds the deterministic regression scene with the full
// telemetry stack attached: tracer, metrics, series, detector.
func telWorld(threads int) (*World, *obs.Series, *obs.Health) {
	w := detWorld(threads)
	w.SetObs(obs.NewTracer(), obs.NewRegistry(), "tel")
	s := obs.NewSeries(128)
	h := obs.NewHealth()
	w.SetSeries(s)
	w.SetHealth(h)
	return w, s, h
}

func TestStepSeriesRecords(t *testing.T) {
	w, s, h := telWorld(2)
	const steps = 20
	for i := 0; i < steps; i++ {
		w.Step()
	}
	if got := s.Steps(); got != steps {
		t.Fatalf("series committed %d steps, want %d", got, steps)
	}
	if h.Tripped() {
		t.Fatalf("detector tripped on the regression scene: %+v", h.Status())
	}
	// The dropping scene has moving bodies, contacts and islands: the
	// core channels must carry live values.
	mustPositive := map[string]obs.ChannelID{
		"kinetic_energy":      s.Channel("kinetic_energy"),
		"islands":             s.Channel("islands"),
		"island_dof_max":      s.Channel("island_dof_max"),
		"solver_impulse_norm": s.Channel("solver_impulse_norm"),
	}
	for name, id := range mustPositive {
		v, ok := s.Last(id)
		if !ok || !(v > 0) {
			t.Errorf("channel %s = %v,%v; want a positive committed value", name, v, ok)
		}
	}
	// Residual and penetration must at least be finite and recorded.
	for _, name := range []string{"solver_residual", "max_penetration"} {
		v, ok := s.Last(s.Channel(name))
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("channel %s = %v,%v; want a finite committed value", name, v, ok)
		}
	}
	// Phase timing channels exist and are marked as timing (excluded
	// from the deterministic exposition).
	var sb strings.Builder
	if err := obs.WriteProm(&sb, nil, s); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "phase_") {
		t.Errorf("timing channels leaked into the exposition:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "parallax_series_kinetic_energy ") {
		t.Errorf("kinetic energy missing from exposition:\n%s", sb.String())
	}
}

// TestMetricsEndpointThreadCountDeterminism pins the tentpole property:
// the full /metrics exposition — registry counters, histograms and the
// series' deterministic channels — is byte-identical at 1 and 8
// threads.
func TestMetricsEndpointThreadCountDeterminism(t *testing.T) {
	run := func(threads int) string {
		reg := obs.NewRegistry()
		w := detWorld(threads)
		w.SetObs(obs.NewTracer(), reg, "det")
		s := obs.NewSeries(128)
		w.SetSeries(s)
		w.SetHealth(obs.NewHealth())
		for i := 0; i < 30; i++ {
			w.Step()
		}
		var sb strings.Builder
		if err := obs.WriteProm(&sb, reg, s); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	m1, m8 := run(1), run(8)
	if m1 != m8 {
		t.Fatalf("/metrics differs between 1 and 8 threads:\n-- 1 --\n%s\n-- 8 --\n%s", m1, m8)
	}
	if err := obs.ValidateExposition([]byte(m1)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
}

// TestSeriesThreadCountDeterminism compares the committed windows of
// every deterministic channel value-for-value across thread counts.
func TestSeriesThreadCountDeterminism(t *testing.T) {
	run := func(threads int) (*obs.Series, []string) {
		w := detWorld(threads)
		w.SetObs(obs.NewTracer(), obs.NewRegistry(), "det")
		s := obs.NewSeries(128)
		w.SetSeries(s)
		for i := 0; i < 25; i++ {
			w.Step()
		}
		return s, s.Names()
	}
	s1, names := run(1)
	s8, _ := run(8)
	for _, name := range names {
		if strings.HasPrefix(name, "phase/") {
			continue // wall clock
		}
		w1 := s1.Window(s1.Channel(name), nil)
		w8 := s8.Window(s8.Channel(name), nil)
		if len(w1) != len(w8) {
			t.Fatalf("%s: window lengths differ: %d vs %d", name, len(w1), len(w8))
		}
		for i := range w1 {
			if math.Float64bits(w1[i]) != math.Float64bits(w8[i]) {
				t.Errorf("%s step %d: %v (1 thread) vs %v (8 threads)", name, i, w1[i], w8[i])
				break
			}
		}
	}
}

// TestPhaseTimingPerWorld: two worlds sharing one tracer each record
// their own phase durations. Stepped in turn, a world's phase/*_ns
// channel must equal what its own step added to the phase span's
// total, not the other world's time since its previous step.
func TestPhaseTimingPerWorld(t *testing.T) {
	tr := obs.NewTracer()
	worlds := []*World{detWorld(1), detWorld(2)}
	series := make([]*obs.Series, len(worlds))
	for i, w := range worlds {
		w.SetObs(tr, nil, fmt.Sprintf("w%d", i))
		series[i] = obs.NewSeries(64)
		w.SetSeries(series[i])
	}
	for step := 0; step < 4; step++ {
		for i, w := range worlds {
			var before [numSpans]int64
			for sp := range spanTable {
				_, before[sp] = tr.SpanTotal(w.spans[sp])
			}
			w.Step()
			for sp := range spanTable {
				name := spanTable[sp].series
				if name == "" {
					continue
				}
				_, after := tr.SpanTotal(w.spans[sp])
				got, _ := series[i].Last(series[i].TimingChannel(name))
				if int64(got) != after-before[sp] {
					t.Errorf("world %d step %d: %s = %v, want its own span time %d ns", i, step, name, got, after-before[sp])
				}
			}
		}
	}
}

// TestHealthTripsOnNaNBody corrupts one body mid-run, exactly as
// paraxsim -nan does, and asserts the detector latches with the right
// cause on the next step.
func TestHealthTripsOnNaNBody(t *testing.T) {
	w, _, h := telWorld(2)
	for i := 0; i < 5; i++ {
		w.Step()
	}
	if h.Tripped() {
		t.Fatal("tripped early")
	}
	w.Bodies[1].LinVel.X = math.NaN()
	w.Step()
	if !h.Tripped() {
		t.Fatal("NaN body did not trip the detector")
	}
	st := h.Status()
	if st.Cause != obs.CauseNaN {
		t.Fatalf("cause = %v, want %v", st.Cause, obs.CauseNaN)
	}
	if st.Step != 6 {
		t.Fatalf("trip step = %d, want 6", st.Step)
	}
}

// TestTelemetrySurvivesSnapshotRestore pins that the gauges telemetry
// derives from world state — kinetic energy, solver residual — are
// bit-identical when a run is forked through Snapshot/Restore.
func TestTelemetrySurvivesSnapshotRestore(t *testing.T) {
	w, s, _ := telWorld(2)
	for i := 0; i < 10; i++ {
		w.Step()
	}
	snap := w.Snapshot()

	fork := New()
	if err := fork.Restore(snap); err != nil {
		t.Fatal(err)
	}
	fs := obs.NewSeries(128)
	fork.SetSeries(fs)

	channels := []string{"kinetic_energy", "solver_residual", "solver_impulse_norm", "max_penetration"}
	for i := 0; i < 10; i++ {
		w.Step()
		fork.Step()
		for _, name := range channels {
			v, _ := s.Last(s.Channel(name))
			fv, _ := fs.Last(fs.Channel(name))
			if math.Float64bits(v) != math.Float64bits(fv) {
				t.Fatalf("step %d: %s diverged after Restore: %v vs %v", i, name, v, fv)
			}
		}
	}
}

// TestSolverResidualPopulated checks the new solver stats flow into the
// profile: a converged contact-rich step reports a finite residual and
// a positive applied-impulse norm, merged in island order.
func TestSolverResidualPopulated(t *testing.T) {
	w := detWorld(2)
	for i := 0; i < 15; i++ {
		w.Step()
	}
	st := w.Profile.Solver
	if st.Rows == 0 {
		t.Fatal("scene produced no solver rows")
	}
	if !(st.ImpulseNorm > 0) {
		t.Fatalf("ImpulseNorm = %v, want > 0 (bodies are resting on the ground)", st.ImpulseNorm)
	}
	if math.IsNaN(st.Residual) || math.IsInf(st.Residual, 0) || st.Residual < 0 {
		t.Fatalf("Residual = %v, want finite and non-negative", st.Residual)
	}
}
