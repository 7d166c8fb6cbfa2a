// Package serve is the sharded multi-world simulation server: a fixed
// pool of shard workers steps up to thousands of independent World
// sessions at a fixed tick rate, with deadline-aware scheduling
// (sessions that blow their tick budget degrade to half rate before
// being evicted), admission control with backpressure (bounded per-shard
// control queues, 429-style rejection when saturated), snapshot-based
// migration between shards, and graceful drain to a spill directory on
// SIGTERM. See DESIGN.md "Serving architecture".
package serve

import (
	"fmt"

	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/workload"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// sessionState is the deadline-scheduler state machine. All transitions
// happen on the owning shard's goroutine; HTTP handlers read session
// state only through shard ops, never directly.
type sessionState int32

const (
	// stateActive: stepped every tick.
	stateActive sessionState = iota
	// stateDegraded: stepped every other tick (half rate). Entered after
	// degradeAfter consecutive deadline misses; one met deadline
	// promotes back to active.
	stateDegraded
	// stateEvicted: removed from the run queue at the next reap. Entered
	// after evictAfter further consecutive misses while degraded, or when
	// the session's anomaly detector latches.
	stateEvicted
)

func (st sessionState) String() string {
	return [...]string{"active", "degraded", "evicted"}[st]
}

// Session is one resident simulation: a World plus its scheduler state.
// After attach, the owning shard goroutine is the only writer.
type Session struct {
	id    string
	scene string  // workload name, or "snapshot" for uploaded worlds
	scale float64 // build scale (0 for uploaded worlds)

	w *world.World
	// stepFn is bound to w.Step at creation (a cold path): the shard
	// tick loop calls sessions only through this trampoline so the
	// parsafe graph is cut at the call site — Step's own hot path is
	// proven separately by its noalloc contract and the step benchmarks.
	stepFn func()
	// health is the session's own anomaly detector; a tripped session is
	// evicted rather than allowed to spread NaNs through its shard's
	// tick budget.
	health *obs.Health

	state  sessionState
	tick   int64 // the owning shard's last tick that visited (or attached) it
	steps  int64 // ticks actually stepped (in-server or via /step)
	misses int64 // consecutive deadline misses in the current state
	cause  string
}

// newSession wires a built world into a session: per-session anomaly
// detector, fleet-wide metrics registry (sessions share the counter
// families; per-world tracer lanes at fleet scale would be
// memory-prohibitive, so tracing is per shard instead).
func newSession(id, scene string, scale float64, w *world.World, reg *obs.Registry) *Session {
	s := &Session{id: id, scene: scene, scale: scale, w: w, health: obs.NewHealth()}
	w.SetObs(nil, reg, "")
	w.SetHealth(s.health)
	s.stepFn = w.Step
	return s
}

// buildSession constructs a session from a named workload scene or an
// uploaded PAXW snapshot (snap non-nil wins).
func buildSession(id, scene string, scale float64, snap []byte, reg *obs.Registry) (*Session, error) {
	if snap != nil {
		w := world.New()
		if err := w.Restore(snap); err != nil {
			return nil, fmt.Errorf("restore uploaded snapshot: %w", err)
		}
		return newSession(id, "snapshot", 0, w, reg), nil
	}
	b, ok := workload.ByName(scene)
	if !ok {
		return nil, fmt.Errorf("unknown scene %q", scene)
	}
	if scale <= 0 {
		scale = 1
	}
	if scale > maxSceneScale {
		return nil, fmt.Errorf("scale %g exceeds the maximum %g", scale, float64(maxSceneScale))
	}
	return newSession(id, scene, scale, b.Build(scale), reg), nil
}

// maxSceneScale bounds the scene scale one create request may ask for:
// body count grows roughly linearly with scale, so an unbounded value is
// an unbounded allocation. 4 is the largest scale any BENCHMARK.json
// workload builds (Continuous@4.0), and the largest scene there, Mix, is
// 44 496 bodies.
const maxSceneScale = 4

// SessionInfo is the read-model handed back by shard info ops.
type SessionInfo struct {
	ID            string  `json:"id"`
	Shard         int     `json:"shard"`
	Scene         string  `json:"scene"`
	Scale         float64 `json:"scale,omitempty"`
	State         string  `json:"state"`
	Steps         int64   `json:"steps"`
	Bodies        int     `json:"bodies"`
	KineticEnergy float64 `json:"kinetic_energy"`
	Healthy       bool    `json:"healthy"`
}

// info snapshots the session on its shard goroutine.
func (s *Session) info(shardIdx int) SessionInfo {
	return SessionInfo{
		ID:            s.id,
		Shard:         shardIdx,
		Scene:         s.scene,
		Scale:         s.scale,
		State:         s.state.String(),
		Steps:         s.steps,
		Bodies:        len(s.w.Bodies),
		KineticEnergy: s.w.KineticEnergy(),
		Healthy:       !s.health.Tripped(),
	}
}

// release shuts down the session's worker pool (SetThreads(1) closes
// the pool goroutines). Called after detach/evict, off the tick path.
func (s *Session) release() { s.w.SetThreads(1) }
