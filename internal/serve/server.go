package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/m3"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// Config sizes the server. The zero value of any field selects its
// default.
type Config struct {
	// Shards is the number of independent shard workers (default 4).
	Shards int
	// Threads is the engine worker count per resident world
	// (world.SetThreads; default 1).
	Threads int
	// Hz is the tick rate per shard. 0 disables the tickers: sessions
	// then advance only through POST /sessions/{id}/step — the mode the
	// determinism tests and CI drain smoke use.
	Hz float64
	// Budget is the per-session step budget per tick; a session over
	// budget degrades to half rate, then evicts (0 disables deadlines).
	Budget time.Duration
	// MaxSessions caps resident sessions fleet-wide (default 1024).
	MaxSessions int
	// Queue is each shard's control-queue depth — the admission
	// backpressure bound (default 64).
	Queue int
	// SpillDir, when set, is where a drain snapshots every resident
	// session; a manifest found there at construction is restored.
	SpillDir string
}

func (c *Config) defaults() {
	if c.Shards < 1 {
		c.Shards = 4
	}
	if c.Threads < 1 {
		c.Threads = 1
	}
	if c.MaxSessions < 1 {
		c.MaxSessions = 1024
	}
	if c.Queue < 1 {
		c.Queue = 64
	}
}

// Server is the sharded session fleet plus its HTTP surface.
type Server struct {
	cfg    Config
	tr     *obs.Tracer
	reg    *obs.Registry
	shards []*shard

	mu   sync.Mutex
	byID map[string]*shard

	nextID   atomic.Int64
	active   atomic.Int64 // resident + reserved sessions
	draining atomic.Bool
	drained  sync.Once

	ctr        serveCounters
	cCreated   obs.CounterID
	cRejected  obs.CounterID
	cDeleted   obs.CounterID
	cMigrated  obs.CounterID
	cSpilled   obs.CounterID
	cRestored  obs.CounterID
	gActive    obs.GaugeID
	obsHandler http.Handler
}

// New builds a server (shard goroutines start with Start). tr and reg
// may be nil — tracing and metrics are independently optional — but a
// nil tracer also disables deadline accounting, since tick durations
// come from Tracer.Now. If cfg.SpillDir holds a drain manifest, every
// spilled session is restored onto its recorded shard before returning.
func New(cfg Config, tr *obs.Tracer, reg *obs.Registry) (*Server, error) {
	cfg.defaults()
	s := &Server{
		cfg:  cfg,
		tr:   tr,
		reg:  reg,
		byID: make(map[string]*shard),
		ctr: serveCounters{
			ticks:     reg.Counter("serve/ticks"),
			misses:    reg.Counter("serve/deadline_misses"),
			degraded:  reg.Counter("serve/degraded"),
			evictions: reg.Counter("serve/evictions"),
		},
		cCreated:   reg.Counter("serve/sessions_created"),
		cRejected:  reg.Counter("serve/rejections"),
		cDeleted:   reg.Counter("serve/sessions_deleted"),
		cMigrated:  reg.Counter("serve/migrations"),
		cSpilled:   reg.Counter("serve/sessions_spilled"),
		cRestored:  reg.Counter("serve/sessions_restored"),
		gActive:    reg.Gauge("serve/active_sessions"),
		obsHandler: obs.Handler(tr, reg, nil, nil),
	}
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = newShard(s, i, cfg.Threads, cfg.Queue, cfg.Hz, cfg.Budget, tr, reg, s.ctr)
	}
	if cfg.SpillDir != "" {
		if err := s.restoreSpill(cfg.SpillDir); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Start launches the shard goroutines (and tickers, if Hz > 0).
func (s *Server) Start() {
	for _, sh := range s.shards {
		go sh.run()
	}
}

// Sessions returns the resident session count.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

// forget drops a session id from the routing map (called by shard reap
// on eviction) and releases its admission slot.
func (s *Server) forget(id string) {
	s.mu.Lock()
	if _, ok := s.byID[id]; ok {
		delete(s.byID, id)
		s.active.Add(-1)
	}
	s.mu.Unlock()
	s.publishActive()
}

func (s *Server) publishActive() {
	s.reg.SetGauge(s.gActive, float64(s.active.Load()))
}

// shardFor routes a session id to its owning shard.
func (s *Server) shardFor(id string) (*shard, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, ok := s.byID[id]
	return sh, ok
}

// leastLoaded picks the placement shard by resident-session count.
func (s *Server) leastLoaded() *shard {
	best := s.shards[0]
	bestN := best.nsess.Load()
	for _, sh := range s.shards[1:] {
		if n := sh.nsess.Load(); n < bestN {
			best, bestN = sh, n
		}
	}
	return best
}

// createError distinguishes admission rejections (429) from bad
// requests (400) and drain refusals (503).
type createError struct {
	status int
	msg    string
}

func (e *createError) Error() string { return e.msg }

// Create admits one session built from a named scene or an uploaded
// PAXW snapshot. Admission is two-staged: a fleet-wide slot reservation
// against MaxSessions, then a non-blocking enqueue onto the placement
// shard's bounded control queue — either failing is a rejection with
// backpressure semantics.
func (s *Server) Create(scene string, scale float64, snap []byte) (SessionInfo, error) {
	if s.draining.Load() {
		return SessionInfo{}, &createError{http.StatusServiceUnavailable, "draining"}
	}
	if s.active.Add(1) > int64(s.cfg.MaxSessions) {
		s.active.Add(-1)
		s.reg.Add(s.cRejected, 1)
		return SessionInfo{}, &createError{http.StatusTooManyRequests, "session limit reached"}
	}
	id := fmt.Sprintf("s-%06d", s.nextID.Add(1))
	sess, err := buildSession(id, scene, scale, snap, s.reg)
	if err != nil {
		s.active.Add(-1)
		return SessionInfo{}, &createError{http.StatusBadRequest, err.Error()}
	}
	sh := s.leastLoaded()
	r, queued, ok := sh.trySubmit(op{kind: opAttach, sess: sess})
	if !queued {
		s.active.Add(-1)
		sess.release()
		s.reg.Add(s.cRejected, 1)
		return SessionInfo{}, &createError{http.StatusTooManyRequests, "shard queue saturated"}
	}
	if !ok || !r.ok {
		s.active.Add(-1)
		sess.release()
		return SessionInfo{}, &createError{http.StatusServiceUnavailable, "shard stopped"}
	}
	s.mu.Lock()
	s.byID[id] = sh
	s.mu.Unlock()
	s.reg.Add(s.cCreated, 1)
	s.publishActive()
	return SessionInfo{ID: id, Shard: sh.index, Scene: sess.scene, Scale: sess.scale, State: stateActive.String()}, nil
}

// Delete detaches and releases a session.
func (s *Server) Delete(id string) bool {
	sh, ok := s.shardFor(id)
	if !ok {
		return false
	}
	r, ok := sh.submit(op{kind: opDetach, id: id})
	if !ok || !r.ok {
		return false
	}
	s.forget(id)
	r.sess.release()
	s.reg.Add(s.cDeleted, 1)
	return true
}

// Migrate moves a session to the target shard via snapshot/restore: the
// detached world is serialized, a fresh world is restored from those
// bytes on the way in, and the PAXW format's bit-stability guarantees
// the rebuilt session steps identically to the original.
func (s *Server) Migrate(id string, target int) (SessionInfo, error) {
	if target < 0 || target >= len(s.shards) {
		return SessionInfo{}, &createError{http.StatusBadRequest, fmt.Sprintf("shard %d out of range", target)}
	}
	src, ok := s.shardFor(id)
	if !ok {
		return SessionInfo{}, &createError{http.StatusNotFound, "not found"}
	}
	dst := s.shards[target]
	if src == dst {
		r, ok := src.submit(op{kind: opInfo, id: id})
		if !ok || !r.ok {
			return SessionInfo{}, &createError{http.StatusNotFound, "not found"}
		}
		return r.info, nil
	}
	r, ok := src.submit(op{kind: opDetach, id: id})
	if !ok || !r.ok {
		return SessionInfo{}, &createError{http.StatusNotFound, "not found"}
	}
	old := r.sess
	snap := old.w.Snapshot()
	old.release()
	nw := world.New()
	if err := nw.Restore(snap); err != nil {
		// The snapshot of a live world must restore; treat failure as an
		// internal error and drop the session rather than leak it.
		s.forget(id)
		return SessionInfo{}, &createError{http.StatusInternalServerError, "migration restore failed: " + err.Error()}
	}
	moved := newSession(old.id, old.scene, old.scale, nw, s.reg)
	moved.steps = old.steps
	// Snapshot the read-model before attach: once the target shard owns
	// the session it may tick concurrently, and info reads world state.
	info := moved.info(dst.index)
	if r2, ok := dst.submit(op{kind: opAttach, sess: moved}); !ok || !r2.ok {
		s.forget(id)
		return SessionInfo{}, &createError{http.StatusServiceUnavailable, "target shard stopped"}
	}
	s.mu.Lock()
	s.byID[id] = dst
	s.mu.Unlock()
	s.reg.Add(s.cMigrated, 1)
	return info, nil
}

// Drain stops accepting work, detaches every session, halts the shard
// goroutines, and — if a spill directory is configured — snapshots all
// sessions there for the next process to restore. Idempotent.
func (s *Server) Drain() error {
	var err error
	s.drained.Do(func() {
		s.draining.Store(true)
		var all []spilledSession
		for _, sh := range s.shards {
			if r, ok := sh.submit(op{kind: opDetachAll}); ok {
				for _, sess := range r.all {
					all = append(all, spilledSession{sess: sess, shard: sh.index})
				}
			}
		}
		for _, sh := range s.shards {
			close(sh.stop)
			<-sh.done
		}
		if s.cfg.SpillDir != "" {
			err = s.spill(s.cfg.SpillDir, all)
		}
		for _, sp := range all {
			sp.sess.release()
		}
	})
	return err
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// ---- HTTP surface ----

type createRequest struct {
	Scene string  `json:"scene"`
	Scale float64 `json:"scale"`
}

type queryRequest struct {
	Min [3]float64 `json:"min"`
	Max [3]float64 `json:"max"`
}

type stepRequest struct {
	Ticks int `json:"ticks"`
}

type migrateRequest struct {
	Shard int `json:"shard"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// maxCreateBody bounds one POST /sessions body, scene JSON or uploaded
// snapshot alike. The largest paper scene at maxSceneScale, Mix (44 496
// bodies), snapshots to 25 440 998 bytes and Breakable to 24 922 048, so
// 32 MiB admits every world the server can build itself and nothing an
// order of magnitude beyond.
const maxCreateBody = 32 << 20

// bodyErrStatus maps a request-body read or decode failure to its
// status: 413 when maxCreateBody cut the body off, 400 otherwise.
func bodyErrStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func statusOf(err error) (int, string) {
	if ce, ok := err.(*createError); ok {
		return ce.status, ce.msg
	}
	return http.StatusInternalServerError, err.Error()
}

// Handler returns the server mux: the session API, a drain-aware
// /health, and the observability layer's /metrics and /trace.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /sessions", func(w http.ResponseWriter, req *http.Request) {
		var (
			info SessionInfo
			err  error
		)
		req.Body = http.MaxBytesReader(w, req.Body, maxCreateBody)
		if strings.HasPrefix(req.Header.Get("Content-Type"), "application/octet-stream") {
			snap, rerr := io.ReadAll(req.Body)
			if rerr != nil {
				writeErr(w, bodyErrStatus(rerr), rerr.Error())
				return
			}
			info, err = s.Create("", 0, snap)
		} else {
			var cr createRequest
			if derr := json.NewDecoder(req.Body).Decode(&cr); derr != nil {
				writeErr(w, bodyErrStatus(derr), "bad request body: "+derr.Error())
				return
			}
			info, err = s.Create(cr.Scene, cr.Scale, nil)
		}
		if err != nil {
			st, msg := statusOf(err)
			writeErr(w, st, msg)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})

	mux.HandleFunc("GET /sessions", func(w http.ResponseWriter, req *http.Request) {
		var infos []SessionInfo
		for _, sh := range s.shards {
			if r, ok := sh.submit(op{kind: opList}); ok && r.ok {
				infos = append(infos, r.infos...)
			}
		}
		sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
		writeJSON(w, http.StatusOK, map[string]any{"sessions": infos, "count": len(infos)})
	})

	session := func(w http.ResponseWriter, req *http.Request, kind opKind, o op) (opReply, bool) {
		id := req.PathValue("id")
		sh, ok := s.shardFor(id)
		if !ok {
			writeErr(w, http.StatusNotFound, "not found")
			return opReply{}, false
		}
		o.kind = kind
		o.id = id
		r, ok := sh.submit(o)
		if !ok {
			writeErr(w, http.StatusServiceUnavailable, "shard stopped")
			return opReply{}, false
		}
		if !r.ok {
			writeErr(w, http.StatusNotFound, r.err)
			return opReply{}, false
		}
		return r, true
	}

	mux.HandleFunc("GET /sessions/{id}", func(w http.ResponseWriter, req *http.Request) {
		if r, ok := session(w, req, opInfo, op{}); ok {
			writeJSON(w, http.StatusOK, r.info)
		}
	})

	mux.HandleFunc("DELETE /sessions/{id}", func(w http.ResponseWriter, req *http.Request) {
		if !s.Delete(req.PathValue("id")) {
			writeErr(w, http.StatusNotFound, "not found")
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /sessions/{id}/snapshot", func(w http.ResponseWriter, req *http.Request) {
		if r, ok := session(w, req, opSnapshot, op{}); ok {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(r.data)
		}
	})

	mux.HandleFunc("POST /sessions/{id}/step", func(w http.ResponseWriter, req *http.Request) {
		var sr stepRequest
		if req.ContentLength != 0 {
			if err := json.NewDecoder(req.Body).Decode(&sr); err != nil {
				writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
				return
			}
		}
		if sr.Ticks < 1 {
			sr.Ticks = 1
		}
		if sr.Ticks > 100000 {
			writeErr(w, http.StatusBadRequest, "ticks out of range")
			return
		}
		if r, ok := session(w, req, opStep, op{ticks: sr.Ticks}); ok {
			writeJSON(w, http.StatusOK, r.info)
		}
	})

	mux.HandleFunc("POST /sessions/{id}/query", func(w http.ResponseWriter, req *http.Request) {
		var qr queryRequest
		if err := json.NewDecoder(req.Body).Decode(&qr); err != nil {
			writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		box := m3.AABB{
			Min: m3.V(qr.Min[0], qr.Min[1], qr.Min[2]),
			Max: m3.V(qr.Max[0], qr.Max[1], qr.Max[2]),
		}
		if r, ok := session(w, req, opQuery, op{box: box}); ok {
			ids := r.ids
			if ids == nil {
				ids = []int32{}
			}
			writeJSON(w, http.StatusOK, map[string]any{"bodies": ids, "count": len(ids)})
		}
	})

	mux.HandleFunc("POST /sessions/{id}/migrate", func(w http.ResponseWriter, req *http.Request) {
		var mr migrateRequest
		if err := json.NewDecoder(req.Body).Decode(&mr); err != nil {
			writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		info, err := s.Migrate(req.PathValue("id"), mr.Shard)
		if err != nil {
			st, msg := statusOf(err)
			writeErr(w, st, msg)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})

	mux.HandleFunc("GET /health", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})

	mux.Handle("GET /metrics", s.obsHandler)
	mux.Handle("GET /trace", s.obsHandler)

	return mux
}
