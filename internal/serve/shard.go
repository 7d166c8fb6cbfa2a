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

// ctl is one control operation: fn runs on the shard goroutine — between
// ticks, or inside a tick between two sessions' steps, never inside a
// step — and done is closed once it has returned. Everything that touches
// a resident session is such a closure, serialized through one bounded
// channel: sessions need no locks, a full channel is the admission
// backpressure signal, and whatever must wrap every op (the wait and
// execution histograms today; a recover, a request id) has one place to
// go, exec. Callers collect results in variables the closure captures;
// done orders those writes before the caller's reads. at is the tracer
// clock when the op was enqueued.
type ctl struct {
	fn   func(*shard)
	done chan struct{}
	at   int64
}

// serveCounters are the fleet-wide counter and histogram families,
// registered once by the server and shared by all shards (both are atomic
// adds, so cross-shard sharing is free).
type serveCounters struct {
	ticks     obs.CounterID
	misses    obs.CounterID
	degraded  obs.CounterID
	evictions obs.CounterID
	queueWait obs.HistID // enqueue → fn starts, µs
	opTime    obs.HistID // fn's own run time, µs
}

// opBoundsUs are the bucket bounds of both op histograms, in microseconds:
// from under one cheap query (≈ 20 µs) to over one 60 Hz tick period.
var opBoundsUs = []int64{20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000}

func newServeCounters(reg *obs.Registry) serveCounters {
	return serveCounters{
		ticks:     reg.Counter("serve/ticks"),
		misses:    reg.Counter("serve/deadline_misses"),
		degraded:  reg.Counter("serve/degraded"),
		evictions: reg.Counter("serve/evictions"),
		queueWait: reg.Histogram("serve/queue_wait_us", opBoundsUs),
		opTime:    reg.Histogram("serve/op_us", opBoundsUs),
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
	// yield hands the shard's CPU to a waiting thread (osYield; tests log
	// it): tick calls it as each gap opens.
	yield func()

	tr       *obs.Tracer
	lane     *obs.Lane
	tickSpan obs.SpanID
	opSpan   obs.SpanID
	reg      *obs.Registry
	ctr      serveCounters
	gSess    obs.GaugeID

	nsess atomic.Int64 // resident sessions, readable by the placement path

	tickNum int64
	// gen counts changes to the run queue (attach, detach, reap): the tick
	// walk rescans from the front when an op in one of its gaps moved it.
	gen int64
	// Per-tick deltas accumulated by the allocation-free session step and
	// folded into the registry by publish, after the tick.
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
		yield:      osYield,
		tr:         tr,
		lane:       tr.Lane(fmt.Sprintf("serve/shard%d", index), obs.DefaultLaneEvents),
		tickSpan:   tr.Span("shard-tick"),
		opSpan:     tr.Span("shard-op"),
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
// every access to resident sessions is single-threaded. The ticker is
// created here, so a shard that is never started owns no timer.
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
			sh.exec(c)
		case <-tickCh:
			sh.tick()
		}
	}
}

// exec runs one control op. It is the only place a ctl is executed — from
// run between ticks and from drain inside one — so it is where the op's
// queue wait and run time are observed and its span recorded.
func (sh *shard) exec(c ctl) {
	t0 := sh.tr.Now()
	c.fn(sh)
	dur := sh.lane.Complete(sh.opSpan, t0)
	close(c.done)
	sh.reg.ObserveInt(sh.ctr.queueWait, (t0-c.at)/1e3)
	sh.reg.ObserveInt(sh.ctr.opTime, dur/1e3)
}

// drain runs the control ops that are queued right now and returns: at
// most len(sh.control) of them, counted before the first runs, so callers
// that refill the queue as fast as it empties wait for the next gap and
// cannot keep a tick from finishing. This goroutine is the queue's only
// receiver, so none of the receives can block, and an empty queue costs
// one channel len.
func (sh *shard) drain() {
	for n := len(sh.control); n > 0; n-- {
		sh.exec(<-sh.control)
	}
}

// tick steps every resident session once (a degraded one on every other
// tick) and serves the control queue in the gap after each step, so a
// request waits for one session's step and not for the whole fleet's. The
// ops in a gap may attach, detach or reap, so the walk does not trust its
// index across one: every session it visits is stamped with the tick
// number, and when the run queue changed under it (gen) it rescans from
// the front, passing over what is stamped. Whatever the ops do, a session
// resident from the tick's start to its end is stepped by it exactly once.
// A session attached in a gap is stamped by attach and first steps on the
// next tick.
//
// A gap opens with a yield of the shard's thread, before the drain. A
// request that arrived during the step is still a readable socket then: the
// thread that will run its handler has been woken, and if the kernel put it
// on this CPU — a lightly loaded two-CPU guest keeps all of a process's
// threads on one — it waits there until the shard's thread is preempted, a
// scheduler tick or the rest of this tick away. The yield runs it now, so
// its op is on the queue when the drain looks. On a CPU nobody is waiting
// for, the yield is one system call that returns at once.
//
// The walk is cold code — a system call, channel receives, closure calls,
// registry and lane writes — around the one thing that is proven, step.
func (sh *shard) tick() {
	t0 := sh.tr.Now()
	skipDegraded := sh.tickNum&1 == 1
	sh.tickNum++
	for i := 0; i < len(sh.sessions); i++ {
		s := sh.sessions[i]
		if s.tick == sh.tickNum {
			continue
		}
		s.tick = sh.tickNum
		if s.state == stateDegraded && skipDegraded {
			continue
		}
		sh.step(s)
		gen := sh.gen
		sh.yield()
		sh.drain()
		if sh.gen != gen {
			i = -1
		}
	}
	if sh.evictPending > 0 {
		sh.reap()
	}
	sh.lane.Complete(sh.tickSpan, t0)
	sh.publish()
}

// step advances one session by its tick and drives the deadline state
// machine. This is the server's steady-state hot path: parsafe proves it —
// and everything reachable from it — allocation-free and
// shared-state-free, so serving never churns the GC no matter how many
// sessions are resident. World stepping goes through the per-session
// stepFn trampoline (bound to World.Step at attach, a cold path), the
// same graph cut the engine's own pool dispatch uses.
//
//paraxlint:parroot shard session step: the steady-state serving hot path
func (sh *shard) step(s *Session) {
	t0 := sh.tr.Now()
	//paraxlint:allow(parsafe) session step trampoline: stepFn is bound to World.Step, whose hot path is proven by its own noalloc contract and the step benchmarks
	s.stepFn()
	dur := sh.tr.Now() - t0
	s.steps++
	if s.health.Tripped() {
		sh.evict(s, "health")
		return
	}
	if sh.budget <= 0 {
		return
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

// evict marks s for removal at the next reap.
func (sh *shard) evict(s *Session, cause string) {
	s.state = stateEvicted
	s.cause = cause
	sh.evictPending++
}

// reap compacts evicted sessions out of the run queue, returning their
// slots and worker pools. Runs only at the end of a tick that actually
// evicted, and from stepN — the steady state never enters it.
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

// syncLoad follows every change to the run queue — attach, detach, reap:
// it republishes the resident-session count (placement atomic + gauge)
// and tells a tick in progress to rescan.
func (sh *shard) syncLoad() {
	sh.gen++
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

// attach adds a session to the run queue, stamped with the current tick:
// whatever stamp it carries is another shard's count, and one attached in
// a gap of a tick waits for the next.
func (sh *shard) attach(s *Session) {
	s.w.SetThreads(sh.threads)
	s.tick = sh.tickNum
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
// deadline state machine and as one indivisible op. A tripped health
// latch evicts at once, as it does in step.
func (sh *shard) stepN(s *Session, n int) {
	for i := 0; i < n; i++ {
		s.stepFn()
		s.steps++
		if s.health.Tripped() {
			sh.evict(s, "health")
			sh.reap()
			break
		}
	}
}

// do runs fn on the shard goroutine and waits for it to return. It
// reports whether fn ran: false means the shard stopped first.
func (sh *shard) do(fn func(*shard)) bool {
	c := ctl{fn, make(chan struct{}), sh.tr.Now()}
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
	c := ctl{fn, make(chan struct{}), sh.tr.Now()}
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
