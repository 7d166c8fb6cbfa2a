package obs

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
)

// Cause identifies which health check tripped the anomaly detector.
type Cause int32

const (
	CauseNone Cause = iota
	// CauseNaN: a body's position, rotation or velocity went NaN/Inf.
	CauseNaN
	// CauseEnergy: kinetic energy spiked versus the trailing window.
	CauseEnergy
	// CauseResidual: the solver residual blew up versus the trailing
	// window.
	CauseResidual
)

// String names the cause for logs and bundle filenames.
func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseNaN:
		return "nan_state"
	case CauseEnergy:
		return "energy_spike"
	case CauseResidual:
		return "residual_blowup"
	}
	return "unknown"
}

// healthWindow is the trailing-window length (steps) for the ratio
// checks. Ratio checks stay disarmed until the window has filled once,
// so settling transients cannot trip them.
const healthWindow = 64

// Detector thresholds. A spike check trips when value > ratio × trailing
// mean AND the trailing mean exceeds the floor — the floor keeps
// near-zero resting scenes from tripping on harmless noise. The ratios
// are deliberately loose (10^4×): breakable-joint scenes legitimately
// convert large amounts of potential energy in one step, and the
// detector exists to catch divergence, not drama.
const (
	energySpikeRatio   = 1e4
	energyFloor        = 1
	residualSpikeRatio = 1e4
	residualFloor      = 1
)

// Sample is one step's worth of health inputs, passed by value so the
// hot-path Update stays allocation-free.
type Sample struct {
	// KineticEnergy is the world's total kinetic energy this step.
	KineticEnergy float64
	// Finite is false if any body state component was NaN/Inf.
	Finite bool
	// Residual is the solver's summed post-iteration row residual.
	Residual float64
}

// Health is the deterministic per-step anomaly detector. Update runs
// every World.Step from the serial post-step path; all checks are pure
// functions of simulation state, so whether (and when) the detector
// trips is identical across thread counts. Once tripped it latches:
// the caller dumps one flight bundle and decides what to do next.
//
// A nil *Health is the disabled detector: Update is a no-op that
// reports no trip.
type Health struct {
	mu sync.Mutex

	keWin  [healthWindow]float64
	keSum  float64
	resWin [healthWindow]float64
	resSum float64
	n      int64 // samples folded into the windows

	// tripped is stored under mu but loaded without it, so Tripped can
	// poll the latch from the shard tick loop without taking the lock.
	tripped  atomic.Bool
	cause    Cause
	tripStep int64
	observed float64 // offending value at trip time
	baseline float64 // trailing mean (or limit) at trip time
}

// NewHealth returns an armed detector.
func NewHealth() *Health { return &Health{} }

// Update folds one step's sample into the detector and reports whether
// it is (now or already) tripped. step is the world's step ordinal.
func (h *Health) Update(step int64, s Sample) bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.tripped.Load() {
		return true
	}

	// NaN/Inf body state: unconditional, no window needed.
	if !s.Finite || math.IsNaN(s.KineticEnergy) || math.IsInf(s.KineticEnergy, 0) {
		h.trip(CauseNaN, step, s.KineticEnergy, 0)
		return true
	}

	// Spike checks compare against the trailing mean BEFORE this
	// sample is folded in, and only once the window has filled.
	if h.n >= healthWindow {
		keMean := h.keSum / healthWindow
		if keMean > energyFloor && s.KineticEnergy > energySpikeRatio*keMean {
			h.trip(CauseEnergy, step, s.KineticEnergy, keMean)
			return true
		}
		resMean := h.resSum / healthWindow
		if resMean > residualFloor && s.Residual > residualSpikeRatio*resMean {
			h.trip(CauseResidual, step, s.Residual, resMean)
			return true
		}
	}

	// Fold the (finite) sample into the trailing windows.
	slot := h.n % healthWindow
	h.keSum += s.KineticEnergy - h.keWin[slot]
	h.keWin[slot] = s.KineticEnergy
	h.resSum += s.Residual - h.resWin[slot]
	h.resWin[slot] = s.Residual
	h.n++
	return false
}

// trip latches the detector. Callers hold h.mu. The latch is stored
// last, so a caller that sees Tripped and then takes Status finds the
// cause already set.
func (h *Health) trip(c Cause, step int64, observed, baseline float64) {
	h.cause = c
	h.tripStep = step
	h.observed = observed
	h.baseline = baseline
	h.tripped.Store(true)
}

// Tripped reports whether the detector has latched. Safe to poll from
// parallel hot paths (the serve shard tick loop polls every resident
// session's detector each tick): one atomic load, no lock, no
// allocation.
func (h *Health) Tripped() bool {
	if h == nil {
		return false
	}
	return h.tripped.Load()
}

// HealthStatus is a point-in-time read of the detector.
type HealthStatus struct {
	OK       bool
	Cause    Cause
	Step     int64
	Observed float64
	Baseline float64
}

// Status returns the detector's current state. A nil detector is
// always OK (nothing is watching, nothing has tripped).
func (h *Health) Status() HealthStatus {
	if h == nil {
		return HealthStatus{OK: true}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HealthStatus{
		OK:       !h.tripped.Load(),
		Cause:    h.cause,
		Step:     h.tripStep,
		Observed: h.observed,
		Baseline: h.baseline,
	}
}

// FlightInfo labels a flight bundle.
type FlightInfo struct {
	// Cause is the trip cause (Cause.String() or a caller-chosen tag
	// such as "replay_divergence").
	Cause string
	// Step is the step ordinal the anomaly was detected at.
	Step int64
	// Label names the workload/scene for humans reading the bundle.
	Label string
}

// WriteFlightBundle dumps the black-box bundle for a tripped detector
// into a fresh directory under dir, named flight-step<N>-<cause>, and
// returns that directory's path. The bundle holds:
//
//	cause.txt     trip cause, step, label — one "key value" line each
//	world.paxw    the PAXW world snapshot: what World.Restore and an
//	              octet-stream POST /sessions accept (paraxsim's -load
//	              and -replay read the PAXR recording replay.paxr its
//	              caller writes beside it, not this file)
//	trace.json    Chrome trace-event JSON of the resident tracer rings,
//	              with the tracer's loss counters and span totals
//	metrics.txt   WriteProm of reg and s: what /metrics served at the trip
//	series.json   the last-K-steps per-step series window
//
// Cold path by definition — it runs once, after the sim has already
// diverged. Nil tracer/registry/series are tolerated; their files are
// still written (an empty trace, an exposition without their families,
// an empty series) so bundle consumers can rely on the file set.
// snapshot may be nil if the caller could not capture one (the
// world.paxw file is then omitted).
func WriteFlightBundle(dir string, info FlightInfo, snapshot []byte, tr *Tracer, reg *Registry, s *Series) (string, error) {
	bundle := filepath.Join(dir, "flight-step"+strconv.FormatInt(info.Step, 10)+"-"+info.Cause)
	if err := os.MkdirAll(bundle, 0o755); err != nil {
		return "", err
	}
	cause := fmt.Sprintf("cause %s\nstep %d\nlabel %s\n", info.Cause, info.Step, info.Label)
	if err := os.WriteFile(filepath.Join(bundle, "cause.txt"), []byte(cause), 0o644); err != nil {
		return "", err
	}
	if snapshot != nil {
		if err := os.WriteFile(filepath.Join(bundle, "world.paxw"), snapshot, 0o644); err != nil {
			return "", err
		}
	}
	if err := WriteFile(filepath.Join(bundle, "trace.json"), tr.WriteTrace); err != nil {
		return "", err
	}
	err := WriteFile(filepath.Join(bundle, "metrics.txt"), func(w io.Writer) error { return WriteProm(w, reg, s) })
	if err != nil {
		return "", err
	}
	return bundle, WriteFile(filepath.Join(bundle, "series.json"), s.WriteJSON)
}

// WriteFile creates path and streams write into it: the one file
// writer behind a flight bundle's files and the CLIs' -trace, -metrics
// and -memprofile outputs.
func WriteFile(path string, write func(io.Writer) error) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
