package serve

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/obs/obshttp"
	"github.com/parallax-arch/parallax/internal/phys/m3"
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
	reg    *obs.Registry
	shards []*shard

	// byID routes every admitted session to its shard (nil while a create
	// that reserved the slot is still building its world); its size is
	// what MaxSessions caps and serve/active_sessions reports.
	mu   sync.Mutex
	byID map[string]*shard

	nextID   atomic.Int64
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
		cfg:        cfg,
		reg:        reg,
		byID:       make(map[string]*shard),
		ctr:        newServeCounters(reg),
		cCreated:   reg.Counter("serve/sessions_created"),
		cRejected:  reg.Counter("serve/rejections"),
		cDeleted:   reg.Counter("serve/sessions_deleted"),
		cMigrated:  reg.Counter("serve/migrations"),
		cSpilled:   reg.Counter("serve/sessions_spilled"),
		cRestored:  reg.Counter("serve/sessions_restored"),
		gActive:    reg.Gauge("serve/active_sessions"),
		obsHandler: obshttp.Handler(tr, reg, nil, nil),
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

// Sessions returns the admitted session count.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

// register routes id to sh. A new id takes an admission slot and is
// refused (false) once MaxSessions are held; a known id only changes
// shard. Every way into a shard — create, migrate, spill restore — comes
// through here, and every way out through unregister. Create and Migrate
// call it from the receiving shard's goroutine, right after the attach:
// no tick can evict the session, and unregister it, before its route
// exists.
func (s *Server) register(id string, sh *shard) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, known := s.byID[id]; !known && len(s.byID) >= s.cfg.MaxSessions {
		return false
	}
	s.byID[id] = sh
	s.reg.SetGauge(s.gActive, float64(len(s.byID)))
	return true
}

// unregister drops id's route and frees its admission slot: delete, a
// failed create or migrate, and eviction (from the shard's reap).
func (s *Server) unregister(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.byID, id)
	s.reg.SetGauge(s.gActive, float64(len(s.byID)))
}

// leastLoaded picks the placement shard by resident-session count.
func (s *Server) leastLoaded() *shard {
	return slices.MinFunc(s.shards, func(a, b *shard) int { return cmp.Compare(a.nsess.Load(), b.nsess.Load()) })
}

// createError is an API failure with its HTTP status: admission
// rejections (429), bad requests (400), unknown sessions (404) and drain
// refusals (503).
type createError struct {
	status int
	msg    string
}

func (e *createError) Error() string { return e.msg }

var (
	errNotFound = &createError{http.StatusNotFound, "not found"}
	errStopped  = &createError{http.StatusServiceUnavailable, "shard stopped"}
)

// onSession runs fn on the goroutine of the shard that owns session id,
// the only place a session's state may be read or written.
func (s *Server) onSession(id string, fn func(*shard, *Session)) error {
	s.mu.Lock()
	sh := s.byID[id]
	s.mu.Unlock()
	if sh == nil {
		return errNotFound
	}
	found := false
	ran := sh.do(func(sh *shard) {
		if sess := sh.find(id); sess != nil {
			found = true
			fn(sh, sess)
		}
	})
	switch {
	case !ran:
		return errStopped
	case !found:
		return errNotFound
	}
	return nil
}

// Create admits one session built from a named scene or an uploaded
// PAXW snapshot. Admission is two-staged: a fleet-wide slot reservation
// against MaxSessions, then a non-blocking enqueue onto the placement
// shard's bounded control queue — either failing is a rejection with
// backpressure semantics.
func (s *Server) Create(scene string, scale float64, snap []byte) (SessionInfo, error) {
	if s.draining.Load() {
		return SessionInfo{}, &createError{http.StatusServiceUnavailable, "draining"}
	}
	id := fmt.Sprintf("s-%06d", s.nextID.Add(1))
	if !s.register(id, nil) {
		s.reg.Add(s.cRejected, 1)
		return SessionInfo{}, &createError{http.StatusTooManyRequests, "session limit reached"}
	}
	sess, err := buildSession(id, scene, scale, snap, s.reg)
	if err != nil {
		s.unregister(id)
		return SessionInfo{}, &createError{http.StatusBadRequest, err.Error()}
	}
	sh := s.leastLoaded()
	var info SessionInfo
	queued, ran := sh.tryDo(func(sh *shard) {
		sh.attach(sess)
		s.register(id, sh)
		info = sess.info(sh.index)
	})
	if !ran {
		s.unregister(id)
		sess.release()
		if !queued {
			s.reg.Add(s.cRejected, 1)
			return SessionInfo{}, &createError{http.StatusTooManyRequests, "shard queue saturated"}
		}
		return SessionInfo{}, errStopped
	}
	s.reg.Add(s.cCreated, 1)
	return info, nil
}

// Delete detaches and releases a session.
func (s *Server) Delete(id string) bool {
	var sess *Session
	if s.onSession(id, func(sh *shard, found *Session) { sh.detach(found); sess = found }) != nil {
		return false
	}
	s.unregister(id)
	sess.release()
	s.reg.Add(s.cDeleted, 1)
	return true
}

// Migrate hands a session to the target shard: detached from its source
// run queue, attached to the target's, the same *Session throughout — so
// the world, its step count and its scheduler state (degraded, miss
// count, health window) arrive as they left.
func (s *Server) Migrate(id string, target int) (SessionInfo, error) {
	if target < 0 || target >= len(s.shards) {
		return SessionInfo{}, &createError{http.StatusBadRequest, fmt.Sprintf("shard %d out of range", target)}
	}
	dst := s.shards[target]
	var (
		info SessionInfo
		sess *Session // set once detached; stays nil when already on dst
	)
	err := s.onSession(id, func(src *shard, found *Session) {
		if src == dst {
			info = found.info(src.index)
			return
		}
		src.detach(found)
		sess = found
	})
	if err != nil || sess == nil {
		return info, err
	}
	if !dst.do(func(sh *shard) {
		sh.attach(sess)
		s.register(id, sh)
		info = sess.info(sh.index)
	}) {
		s.unregister(id)
		sess.release()
		return SessionInfo{}, &createError{http.StatusServiceUnavailable, "target shard stopped"}
	}
	s.reg.Add(s.cMigrated, 1)
	return info, nil
}

// Drain stops accepting work, halts the shard goroutines and — if a
// spill directory is configured — snapshots every session there for the
// next process to restore. Once a shard's goroutine has exited nothing
// else touches its run queue, so spill reads it in place. Idempotent.
func (s *Server) Drain() error {
	var err error
	s.drained.Do(func() {
		s.draining.Store(true)
		for _, sh := range s.shards {
			close(sh.stop)
			<-sh.done
		}
		if s.cfg.SpillDir != "" {
			err = s.spill(s.cfg.SpillDir)
		}
		for _, sh := range s.shards {
			for _, sess := range sh.sessions {
				sess.release()
			}
		}
	})
	return err
}

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

// fail answers with the status a createError carries, 500 otherwise.
func fail(w http.ResponseWriter, err error) {
	var ce *createError
	if errors.As(err, &ce) {
		writeErr(w, ce.status, ce.msg)
		return
	}
	writeErr(w, http.StatusInternalServerError, err.Error())
}

// maxCreateBody bounds one POST /sessions body, scene JSON or uploaded
// snapshot alike. The largest paper scene at maxSceneScale, Mix (44 496
// bodies), snapshots to 25 440 998 bytes and Breakable to 24 922 048, so
// 32 MiB admits every world the server can build itself and nothing an
// order of magnitude beyond.
const maxCreateBody = 32 << 20

// maxOpBody bounds the step, query and migrate bodies: ~40× the largest
// legal one, a query box of six float64s.
const maxOpBody = 4 << 10

// bodyErrStatus maps a request-body read or decode failure to its
// status: 413 when the size bound cut the body off, 400 otherwise.
func bodyErrStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// decodeBody reads a JSON request body of at most limit bytes into v; on
// failure it has answered the request (413 or 400) and returns false.
func decodeBody(w http.ResponseWriter, req *http.Request, limit int64, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, limit)).Decode(v); err != nil {
		writeErr(w, bodyErrStatus(err), "bad request body: "+err.Error())
		return false
	}
	return true
}

// Handler returns the server mux: the session API, a drain-aware
// /health, and the observability layer's /metrics and /trace.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /sessions", func(w http.ResponseWriter, req *http.Request) {
		var (
			cr   createRequest
			snap []byte // non-nil wins over cr
		)
		if strings.HasPrefix(req.Header.Get("Content-Type"), "application/octet-stream") {
			var err error
			if snap, err = io.ReadAll(http.MaxBytesReader(w, req.Body, maxCreateBody)); err != nil {
				writeErr(w, bodyErrStatus(err), err.Error())
				return
			}
		} else if !decodeBody(w, req, maxCreateBody, &cr) {
			return
		}
		info, err := s.Create(cr.Scene, cr.Scale, snap)
		if err != nil {
			fail(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})

	mux.HandleFunc("GET /sessions", func(w http.ResponseWriter, req *http.Request) {
		var infos []SessionInfo
		for _, sh := range s.shards {
			sh.do(func(sh *shard) {
				for _, sess := range sh.sessions {
					infos = append(infos, sess.info(sh.index))
				}
			})
		}
		sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
		writeJSON(w, http.StatusOK, map[string]any{"sessions": infos, "count": len(infos)})
	})

	// session runs fn against the request's session on its shard; on
	// failure it has answered the request (404 or 503) and returns false.
	session := func(w http.ResponseWriter, req *http.Request, fn func(*shard, *Session)) bool {
		if err := s.onSession(req.PathValue("id"), fn); err != nil {
			fail(w, err)
			return false
		}
		return true
	}

	mux.HandleFunc("GET /sessions/{id}", func(w http.ResponseWriter, req *http.Request) {
		var info SessionInfo
		if session(w, req, func(sh *shard, sess *Session) { info = sess.info(sh.index) }) {
			writeJSON(w, http.StatusOK, info)
		}
	})

	mux.HandleFunc("DELETE /sessions/{id}", func(w http.ResponseWriter, req *http.Request) {
		if !s.Delete(req.PathValue("id")) {
			fail(w, errNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /sessions/{id}/snapshot", func(w http.ResponseWriter, req *http.Request) {
		var data []byte
		if session(w, req, func(_ *shard, sess *Session) { data = sess.w.Snapshot() }) {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(data)
		}
	})

	mux.HandleFunc("POST /sessions/{id}/step", func(w http.ResponseWriter, req *http.Request) {
		var sr stepRequest
		if req.ContentLength != 0 && !decodeBody(w, req, maxOpBody, &sr) {
			return
		}
		if sr.Ticks < 1 {
			sr.Ticks = 1
		}
		if sr.Ticks > 100000 {
			writeErr(w, http.StatusBadRequest, "ticks out of range")
			return
		}
		var info SessionInfo
		if session(w, req, func(sh *shard, sess *Session) {
			sh.stepN(sess, sr.Ticks)
			info = sess.info(sh.index)
		}) {
			writeJSON(w, http.StatusOK, info)
		}
	})

	mux.HandleFunc("POST /sessions/{id}/query", func(w http.ResponseWriter, req *http.Request) {
		var qr queryRequest
		if !decodeBody(w, req, maxOpBody, &qr) {
			return
		}
		box := m3.AABB{
			Min: m3.V(qr.Min[0], qr.Min[1], qr.Min[2]),
			Max: m3.V(qr.Max[0], qr.Max[1], qr.Max[2]),
		}
		ids := []int32{}
		if session(w, req, func(_ *shard, sess *Session) { ids = sess.w.BodiesIn(box, ids) }) {
			writeJSON(w, http.StatusOK, map[string]any{"bodies": ids, "count": len(ids)})
		}
	})

	mux.HandleFunc("POST /sessions/{id}/migrate", func(w http.ResponseWriter, req *http.Request) {
		var mr migrateRequest
		if !decodeBody(w, req, maxOpBody, &mr) {
			return
		}
		info, err := s.Migrate(req.PathValue("id"), mr.Shard)
		if err != nil {
			fail(w, err)
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
