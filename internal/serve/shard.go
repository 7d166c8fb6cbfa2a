package serve

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"github.com/parallax-arch/parallax/internal/obs"
)

// Deadline scheduler thresholds: consecutive budget misses before an
// active session is degraded to half rate, and further consecutive
// misses before a degraded session is evicted (the shard's evictAfter,
// which NewShardBench can lift to keep a measured population fixed).
const (
	degradeAfter      = 3
	defaultEvictAfter = 8
)

// ctl is one control operation: fn runs on the shard goroutine, between
// ticks, and done is closed once it has returned. Everything that touches
// a resident session is such a closure, serialized through one bounded
// channel: sessions need no locks, a full channel is the admission
// backpressure signal, and whatever must wrap every op (a recover, a
// request id, a histogram) has one place to go, the case in run. Callers
// collect results in variables the closure captures; done orders those
// writes before the caller's reads.
type ctl struct {
	fn   func(*shard)
	done chan struct{}
}

// serveCounters are the fleet-wide counter families, registered once by
// the server and shared by all shards (counters are atomic adds, so
// cross-shard sharing is free).
type serveCounters struct {
	ticks     obs.CounterID
	misses    obs.CounterID
	degraded  obs.CounterID
	evictions obs.CounterID
}

func newServeCounters(reg *obs.Registry) serveCounters {
	return serveCounters{
		ticks:     reg.Counter("serve/ticks"),
		misses:    reg.Counter("serve/deadline_misses"),
		degraded:  reg.Counter("serve/degraded"),
		evictions: reg.Counter("serve/evictions"),
	}
}

// shard owns a dense run queue of sessions and steps them at the tick
// rate. One goroutine (run) is the sole writer of all session state.
type shard struct {
	srv     *Server // nil in standalone benchmarks
	index   int
	threads int           // worker threads per resident world
	budget  int64         // per-session tick budget in nanoseconds; 0 disables deadlines
	period  time.Duration // tick period; 0 = no ticker, manual stepping only

	evictAfter int64

	sessions []*Session
	control  chan ctl
	stop     chan struct{}
	done     chan struct{}

	tr       *obs.Tracer
	lane     *obs.Lane
	tickSpan obs.SpanID
	reg      *obs.Registry
	ctr      serveCounters
	gSess    obs.GaugeID

	nsess atomic.Int64 // resident sessions, readable by the placement path

	tickNum int64
	// Per-tick deltas accumulated by the allocation-free tick loop and
	// folded into the registry by run() between ticks.
	dMisses   int64
	dDegraded int64
	// evictPending counts sessions marked evicted since the last reap.
	evictPending int64
}

// newShard builds one shard. hz <= 0 disables the ticker: sessions then
// advance only through explicit step ops (the mode CI smoke tests and
// the determinism tests use, since a free-running clock would make
// drain/restart snapshots diverge by however many ticks elapsed).
func newShard(srv *Server, index, threads, queue int, hz float64, budget time.Duration,
	tr *obs.Tracer, reg *obs.Registry, ctr serveCounters) *shard {
	sh := &shard{
		srv:        srv,
		index:      index,
		threads:    threads,
		budget:     budget.Nanoseconds(),
		evictAfter: defaultEvictAfter,
		control:    make(chan ctl, queue),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		tr:         tr,
		lane:       tr.Lane(fmt.Sprintf("serve/shard%d", index), obs.DefaultLaneEvents),
		tickSpan:   tr.Span("shard-tick"),
		reg:        reg,
		ctr:        ctr,
		gSess:      reg.Gauge(fmt.Sprintf("serve/shard%d/sessions", index)),
	}
	if hz > 0 {
		sh.period = time.Duration(float64(time.Second) / hz)
	}
	return sh
}

// run is the shard goroutine: control ops and ticks interleave here, so
// every access to resident sessions is single-threaded. Metric and span
// publication happens here, between ticks, keeping the tick loop itself
// free of registry and lane calls.
func (sh *shard) run() {
	defer close(sh.done)
	var tickCh <-chan time.Time
	if sh.period > 0 {
		ticker := time.NewTicker(sh.period)
		defer ticker.Stop()
		tickCh = ticker.C
	}
	for {
		select {
		case <-sh.stop:
			return
		case c := <-sh.control:
			c.fn(sh)
			close(c.done)
		case <-tickCh:
			t0 := sh.tr.Now()
			sh.tick()
			sh.lane.Complete(sh.tickSpan, t0)
			sh.publish()
		}
	}
}

// tick steps every resident session once (degraded sessions every other
// tick) and drives the deadline state machine. This is the server's
// per-tick hot loop: parsafe proves it — and everything reachable from
// it — allocation-free and shared-state-free, so steady-state serving
// never churns the GC no matter how many sessions are resident. World
// stepping goes through the per-session stepFn trampoline (bound to
// World.Step at attach, a cold path), the same graph cut the engine's
// own pool dispatch uses.
//
//paraxlint:parroot shard tick loop: the steady-state serving hot path
func (sh *shard) tick() {
	skipDegraded := sh.tickNum&1 == 1
	sh.tickNum++
	for _, s := range sh.sessions {
		if s.state == stateEvicted || (s.state == stateDegraded && skipDegraded) {
			continue
		}
		t0 := sh.tr.Now()
		//paraxlint:allow(parsafe) session step trampoline: stepFn is bound to World.Step, whose hot path is proven by its own noalloc contract and the step benchmarks
		s.stepFn()
		dur := sh.tr.Now() - t0
		s.steps++
		if s.health.Tripped() {
			sh.evict(s, "health")
			continue
		}
		if sh.budget <= 0 {
			continue
		}
		if dur > sh.budget {
			s.misses++
			sh.dMisses++
			if s.state == stateActive && s.misses >= degradeAfter {
				s.state = stateDegraded
				s.misses = 0
				sh.dDegraded++
			} else if s.state == stateDegraded && s.misses >= sh.evictAfter {
				sh.evict(s, "deadline")
			}
		} else {
			s.misses = 0
			if s.state == stateDegraded {
				s.state = stateActive
			}
		}
	}
	if sh.evictPending > 0 {
		sh.reap()
	}
}

// evict marks s for removal at the next reap.
func (sh *shard) evict(s *Session, cause string) {
	s.state = stateEvicted
	s.cause = cause
	sh.evictPending++
}

// reap compacts evicted sessions out of the run queue, returning their
// slots and worker pools. Runs only on ticks that actually evicted —
// the steady state never enters it.
//
//paraxlint:coldpath eviction sweep: allocates during compaction and touches the registry and server map
func (sh *shard) reap() {
	sh.sessions = slices.DeleteFunc(sh.sessions, func(s *Session) bool {
		if s.state != stateEvicted {
			return false
		}
		sh.reg.Add(sh.ctr.evictions, 1)
		s.release()
		if sh.srv != nil {
			sh.srv.unregister(s.id)
		}
		return true
	})
	sh.evictPending = 0
	sh.syncLoad()
}

// publish folds the tick's accumulated deltas into the shared registry.
func (sh *shard) publish() {
	sh.reg.Add(sh.ctr.ticks, 1)
	if sh.dMisses > 0 {
		sh.reg.Add(sh.ctr.misses, sh.dMisses)
		sh.dMisses = 0
	}
	if sh.dDegraded > 0 {
		sh.reg.Add(sh.ctr.degraded, sh.dDegraded)
		sh.dDegraded = 0
	}
}

// syncLoad republishes the shard's resident-session count (placement
// atomic + gauge). Cold path: attach, detach, reap.
func (sh *shard) syncLoad() {
	n := int64(len(sh.sessions))
	sh.nsess.Store(n)
	sh.reg.SetGauge(sh.gSess, float64(n))
}

// find returns the resident session with the given id, or nil.
func (sh *shard) find(id string) *Session {
	for _, s := range sh.sessions {
		if s.id == id {
			return s
		}
	}
	return nil
}

// attach adds a session to the run queue.
func (sh *shard) attach(s *Session) {
	s.w.SetThreads(sh.threads)
	sh.sessions = append(sh.sessions, s)
	sh.syncLoad()
}

// detach takes s off the run queue, scheduler state and all: the caller
// owns it from here, to release or to attach elsewhere.
func (sh *shard) detach(s *Session) {
	sh.sessions = slices.DeleteFunc(sh.sessions, func(r *Session) bool { return r == s })
	sh.syncLoad()
}

// stepN advances s by n ticks on request (POST …/step), outside the
// deadline state machine. A tripped health latch evicts at once, as it
// does in tick.
func (sh *shard) stepN(s *Session, n int) {
	t0 := sh.tr.Now()
	for i := 0; i < n; i++ {
		s.stepFn()
		s.steps++
		if s.health.Tripped() {
			sh.evict(s, "health")
			sh.reap()
			break
		}
	}
	sh.lane.Complete(sh.tickSpan, t0)
}

// do runs fn on the shard goroutine and waits for it to return. It
// reports whether fn ran: false means the shard stopped first.
func (sh *shard) do(fn func(*shard)) bool {
	c := ctl{fn, make(chan struct{})}
	select {
	case sh.control <- c:
		return sh.wait(c)
	case <-sh.done:
		return false
	}
}

// tryDo is do with a non-blocking enqueue: a full control queue returns
// at once with queued=false — the admission-control signal.
func (sh *shard) tryDo(fn func(*shard)) (queued, ran bool) {
	c := ctl{fn, make(chan struct{})}
	select {
	case sh.control <- c:
		return true, sh.wait(c)
	default:
		return false, false
	}
}

// wait blocks until c has run or the shard has stopped, then reports
// which. A stopped shard runs nothing more, so false is final: fn never
// ran and never will.
func (sh *shard) wait(c ctl) bool {
	select {
	case <-c.done:
	case <-sh.done:
	}
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}
