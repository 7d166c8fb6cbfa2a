package world

import (
	"fmt"

	"github.com/parallax-arch/parallax/internal/obs"
)

// stepMetrics holds the pre-registered metric IDs harvested from the
// StepProfile at the end of every step. All are commutative integer
// aggregates of values that are themselves deterministic per step
// (per-chunk results merge in chunk order), so the metrics snapshot is
// byte-identical whatever the thread count.
type stepMetrics struct {
	steps            obs.CounterID
	pairs            obs.CounterID
	contacts         obs.CounterID
	islands          obs.CounterID
	findSteps        obs.CounterID
	solverRows       obs.CounterID
	solverRowUpdates obs.CounterID
	bodiesIntegrated obs.CounterID
	explosions       obs.CounterID
	fractureHits     obs.CounterID
	jointBreaks      obs.CounterID
	clothVertUpdates obs.CounterID
	aabbUpdates      obs.CounterID
	broadSortOps     obs.CounterID

	islandDOF obs.HistID
}

// islandDOFBounds buckets the per-island DOF histogram: SmallIslandDOF
// sits inside the first bounds so the main-thread/work-queue split is
// readable straight off the snapshot.
var islandDOFBounds = []int64{SmallIslandDOF, 64, 256, 1024, 4096}

// SetObs attaches an observability sink to the world: spans for the
// five Step phases and the per-worker tasks go to tr, work counters to
// reg. label prefixes the lane (Perfetto track) names so several worlds
// can share one tracer. Both arguments may be nil (tracing and metrics
// are independently optional); calling SetObs(nil, nil, "") detaches.
//
// One lane is created per worker; SetThreads grows the lanes if it
// raises the thread count later.
func (w *World) SetObs(tr *obs.Tracer, reg *obs.Registry, label string) {
	w.trace = tr
	w.metrics = reg
	w.obsLabel = label
	w.obsLanes = w.obsLanes[:0]
	if tr != nil {
		for i := range spanTable {
			w.spans[i] = tr.Span(spanTable[i].name)
		}
		w.growObsLanes()
	}
	if reg != nil {
		w.met = stepMetrics{
			steps:            reg.Counter("engine/steps"),
			pairs:            reg.Counter("engine/pairs"),
			contacts:         reg.Counter("engine/contacts"),
			islands:          reg.Counter("engine/islands"),
			findSteps:        reg.Counter("engine/find_steps"),
			solverRows:       reg.Counter("engine/solver_rows"),
			solverRowUpdates: reg.Counter("engine/solver_row_updates"),
			bodiesIntegrated: reg.Counter("engine/bodies_integrated"),
			explosions:       reg.Counter("engine/explosions"),
			fractureHits:     reg.Counter("engine/fracture_hits"),
			jointBreaks:      reg.Counter("engine/joint_breaks"),
			clothVertUpdates: reg.Counter("engine/cloth_vertex_updates"),
			aabbUpdates:      reg.Counter("engine/aabb_updates"),
			broadSortOps:     reg.Counter("engine/broad_sort_ops"),
			islandDOF:        reg.Histogram("engine/island_dof", islandDOFBounds),
		}
	}
}

// growObsLanes creates the missing per-worker lanes.
func (w *World) growObsLanes() {
	for i := len(w.obsLanes); i < w.threads; i++ {
		events := obs.DefaultLaneEvents
		if i == 0 {
			// The main-thread lane carries the phase spans on top of its
			// share of task spans; give it more history before the ring
			// wraps.
			events *= 4
		}
		w.obsLanes = append(w.obsLanes, w.trace.Lane(fmt.Sprintf("%s/worker%d", w.obsLabel, i), events))
	}
}

// laneFor returns worker i's span lane, or nil when tracing is off (the
// nil-check fast path: every Lane method is a no-op on nil).
func (w *World) laneFor(worker int) *obs.Lane {
	if worker >= len(w.obsLanes) {
		return nil
	}
	return w.obsLanes[worker]
}

// recordStepMetrics harvests the finished step's profile into the
// metrics registry.
func (w *World) recordStepMetrics(prof *StepProfile) {
	m := w.metrics
	if m == nil {
		return
	}
	m.Add(w.met.steps, 1)
	m.Add(w.met.pairs, int64(prof.Pairs))
	m.Add(w.met.contacts, int64(prof.Contacts))
	m.Add(w.met.islands, int64(len(prof.Islands)))
	m.Add(w.met.findSteps, int64(prof.FindSteps))
	m.Add(w.met.solverRows, int64(prof.Solver.Rows))
	m.Add(w.met.solverRowUpdates, int64(prof.Solver.RowUpdates))
	m.Add(w.met.bodiesIntegrated, int64(prof.BodiesIntegrated))
	m.Add(w.met.explosions, int64(prof.Explosions))
	m.Add(w.met.fractureHits, int64(prof.FractureHit))
	m.Add(w.met.jointBreaks, int64(prof.JointBreaks))
	m.Add(w.met.clothVertUpdates, int64(prof.Cloth.VertexUpdates))
	m.Add(w.met.aabbUpdates, int64(prof.Broad.AABBUpdates))
	m.Add(w.met.broadSortOps, int64(prof.Broad.SortOps))
	for i := range prof.Islands {
		m.ObserveInt(w.met.islandDOF, int64(prof.Islands[i].DOF))
	}
}

// stepSeries holds the pre-registered series channel IDs recorded once
// per step by recordTelemetry. The first group are deterministic
// simulation quantities (byte-identical across thread counts, exposed
// at /metrics); phaseNs are wall-clock timing channels (diagnostics
// only), one per spanTable row that names a series, indexed by span.
type stepSeries struct {
	kineticEnergy  obs.ChannelID
	maxPenetration obs.ChannelID
	solverResidual obs.ChannelID
	impulseNorm    obs.ChannelID
	islands        obs.ChannelID
	islandDOFMax   obs.ChannelID
	broadSortOps   obs.ChannelID

	phaseNs [numSpans]obs.ChannelID
}

// SetSeries attaches (or, with nil, detaches) the per-step telemetry
// series. Channels are registered here, on the cold path; every Step
// then stages one row and commits it allocation-free from the serial
// post-step path. If a tracer is attached (SetObs), per-phase wall
// durations are recorded into timing channels by differencing
// Tracer.SpanTotal between steps; call SetObs first so the span IDs
// exist.
func (w *World) SetSeries(s *obs.Series) {
	w.series = s
	if s == nil {
		w.ser = stepSeries{}
		return
	}
	w.ser = stepSeries{
		kineticEnergy:  s.Channel("kinetic_energy"),
		maxPenetration: s.Channel("max_penetration"),
		solverResidual: s.Channel("solver_residual"),
		impulseNorm:    s.Channel("solver_impulse_norm"),
		islands:        s.Channel("islands"),
		islandDOFMax:   s.Channel("island_dof_max"),
		broadSortOps:   s.Channel("broad_sort_ops"),
	}
	for i := range spanTable {
		if name := spanTable[i].series; name != "" {
			w.ser.phaseNs[i] = s.TimingChannel(name)
			_, w.prevPhaseNs[i] = w.trace.SpanTotal(w.spans[i])
		}
	}
}

// SetHealth attaches (or, with nil, detaches) the anomaly detector.
// The detector sees every step's Sample from the serial post-step
// path; poll Health.Tripped/Status between frames to react.
func (w *World) SetHealth(h *obs.Health) { w.health = h }

// recordTelemetry feeds the finished step into the series rings and
// the anomaly detector. It runs on the serial post-step path: the body
// scan (kinetic energy + finiteness) iterates in body index order and
// the solver stats were merged in island index order, so every
// deterministic channel is byte-identical across thread counts.
func (w *World) recordTelemetry(prof *StepProfile) {
	if w.series == nil && w.health == nil {
		return
	}
	w.telStep++

	ke := 0.0
	finite := true
	for _, b := range w.Bodies {
		if !b.Enabled {
			continue
		}
		ke += b.KineticEnergy()
		if !b.Valid() {
			finite = false
		}
	}
	maxDOF := 0
	for i := range prof.Islands {
		if prof.Islands[i].DOF > maxDOF {
			maxDOF = prof.Islands[i].DOF
		}
	}

	if s := w.series; s != nil {
		s.Set(w.ser.kineticEnergy, ke)
		s.Set(w.ser.maxPenetration, prof.Narrow.DeepestDepth)
		s.Set(w.ser.solverResidual, prof.Solver.Residual)
		s.Set(w.ser.impulseNorm, prof.Solver.ImpulseNorm)
		s.Set(w.ser.islands, float64(len(prof.Islands)))
		s.Set(w.ser.islandDOFMax, float64(maxDOF))
		s.Set(w.ser.broadSortOps, float64(prof.Broad.SortOps))
		for i := range spanTable {
			if spanTable[i].series == "" {
				continue
			}
			_, ns := w.trace.SpanTotal(w.spans[i])
			s.Set(w.ser.phaseNs[i], float64(ns-w.prevPhaseNs[i]))
			w.prevPhaseNs[i] = ns
		}
		s.Advance()
	}

	w.health.Update(w.telStep, obs.Sample{
		KineticEnergy:  ke,
		Finite:         finite,
		Residual:       prof.Solver.Residual,
		MaxPenetration: prof.Narrow.DeepestDepth,
	})
}
