package serve

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/parallax-arch/parallax/internal/obs"
)

// stubFleet is a shard nobody runs — the test goroutine is its goroutine
// and calls tick itself — whose sessions step through a stub: every step
// is written to log, and a hook registered under the session's name runs
// inside that step, where it can put ops on the control queue the way a
// handler on another goroutine would while the shard is busy stepping.
type stubFleet struct {
	sh     *shard
	byName map[string]*Session
	log    []string
	during map[string]func()
	inOp   bool // a step taken inside an op (stepN) is logged with a '*'
}

func newStubFleet(queue int, reg *obs.Registry, names ...string) *stubFleet {
	tr := obs.NewTracer()
	f := &stubFleet{
		sh:     newShard(nil, 0, 1, queue, 0, 0, tr, reg, newServeCounters(reg)),
		byName: map[string]*Session{},
		during: map[string]func(){},
	}
	for _, name := range names {
		f.sh.attach(f.session(name))
	}
	return f
}

// session builds a stub session; the caller attaches it.
func (f *stubFleet) session(name string) *Session {
	s := newSession(name, "stub", 0, tinyWorld(), nil)
	s.stepFn = func() {
		if f.inOp {
			f.log = append(f.log, name+"*")
		} else {
			f.log = append(f.log, name)
		}
		if hook := f.during[name]; hook != nil {
			hook()
		}
	}
	f.byName[name] = s
	return s
}

// enqueue puts fn on the control queue without waiting for it.
func (f *stubFleet) enqueue(fn func(*shard)) {
	f.sh.control <- ctl{fn: fn, done: make(chan struct{}), at: f.sh.tr.Now()}
}

// tick runs one tick and returns what it stepped, in order.
func (f *stubFleet) tick() string {
	f.log = f.log[:0]
	f.sh.tick()
	return strings.Join(f.log, " ")
}

// An op enqueued while session k steps has run before session k+1 steps.
func TestOpRunsBetweenSessionSteps(t *testing.T) {
	f := newStubFleet(4, nil, "a", "b", "c")
	f.during["b"] = func() {
		f.enqueue(func(*shard) { f.log = append(f.log, "op") })
	}
	if got, want := f.tick(), "a b op c"; got != want {
		t.Fatalf("tick stepped %q, want %q", got, want)
	}
}

// Every gap opens with the yield, before the drain: the handler of a request
// that arrived during the step gets the CPU to put its op on the queue, and
// the drain that follows finds it. A yield after the drain would leave that
// op waiting for the next gap.
func TestGapYieldsBeforeItDrains(t *testing.T) {
	f := newStubFleet(4, nil, "a", "b")
	f.sh.yield = func() {
		f.log = append(f.log, "yield")
		if len(f.log) == 4 { // the gap after b's step
			f.enqueue(func(*shard) { f.log = append(f.log, "op") })
		}
	}
	if got, want := f.tick(), "a yield b yield op"; got != want {
		t.Fatalf("tick did %q, want %q", got, want)
	}
}

// TestTickStepsEachSessionOnce fires run-queue-changing ops from inside
// chosen steps of tick 3 and pins what ticks 3, 4 and 5 step: every session
// resident through a tick is stepped by it exactly once, none twice, none
// skipped; the degraded session g keeps to odd ticks; and a session that
// arrives in a gap — new or migrated, whatever tick stamp it brings — first
// steps on the next tick.
func TestTickStepsEachSessionOnce(t *testing.T) {
	// tripInStepN enqueues a manual step of a session whose detector has
	// latched: stepN evicts and reaps it inside the gap.
	tripInStepN := func(name string) func(f *stubFleet) {
		return func(f *stubFleet) {
			f.enqueue(func(sh *shard) {
				f.inOp = true
				f.byName[name].health.Update(1, obs.Sample{Finite: false})
				sh.stepN(f.byName[name], 3)
				f.inOp = false
			})
		}
	}
	// migrateIn hands session m over from a second shard that has ticked
	// otherTicks times, so m carries that shard's stamp: behind this
	// shard's tick, equal to it, or equal to a tick still to come.
	migrateIn := func(otherTicks int) func(f *stubFleet) {
		return func(f *stubFleet) {
			other := newStubFleet(4, nil)
			m := f.session("m")
			logged := m.stepFn
			m.stepFn = func() {}
			other.sh.attach(m)
			for i := 0; i < otherTicks; i++ {
				other.sh.tick()
			}
			other.sh.detach(m)
			m.stepFn = logged
			f.enqueue(func(sh *shard) { sh.attach(m) })
		}
	}
	for _, c := range []struct {
		name   string
		during string // the step of tick 3 the op is enqueued from
		op     func(f *stubFleet)
		want   [3]string
	}{
		{"no op", "", nil,
			[3]string{"a b g c d", "a b c d", "a b g c d"}},
		{"delete the session about to step", "a",
			func(f *stubFleet) { f.enqueue(func(sh *shard) { sh.detach(f.byName["b"]) }) },
			[3]string{"a g c d", "a c d", "a g c d"}},
		{"delete one already stepped", "c",
			func(f *stubFleet) { f.enqueue(func(sh *shard) { sh.detach(f.byName["a"]) }) },
			[3]string{"a b g c d", "b c d", "b g c d"}},
		{"delete the one that just stepped", "c",
			func(f *stubFleet) { f.enqueue(func(sh *shard) { sh.detach(f.byName["c"]) }) },
			[3]string{"a b g c d", "a b d", "a b g d"}},
		{"attach a new one", "b",
			func(f *stubFleet) { f.enqueue(func(sh *shard) { sh.attach(f.session("e")) }) },
			[3]string{"a b g c d", "a b c d e", "a b g c d e"}},
		{"migrate one in, stamp behind", "b", migrateIn(1),
			[3]string{"a b g c d", "a b c d m", "a b g c d m"}},
		{"migrate one in, stamp equal", "b", migrateIn(3),
			[3]string{"a b g c d", "a b c d m", "a b g c d m"}},
		{"migrate one in, stamp ahead", "b", migrateIn(5),
			[3]string{"a b g c d", "a b c d m", "a b g c d m"}},
		{"stepN trips and reaps one not yet stepped", "b", tripInStepN("c"),
			[3]string{"a b c* g d", "a b d", "a b g d"}},
		{"stepN trips and reaps one already stepped", "c", tripInStepN("a"),
			[3]string{"a b g c a* d", "b c d", "b g c d"}},
		{"two ops in one gap: delete behind, attach", "g",
			func(f *stubFleet) {
				f.enqueue(func(sh *shard) { sh.detach(f.byName["a"]) })
				f.enqueue(func(sh *shard) { sh.attach(f.session("e")) })
			},
			[3]string{"a b g c d", "b c d e", "b g c d e"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newStubFleet(4, nil, "a", "b", "g", "c", "d")
			f.byName["g"].state = stateDegraded
			f.tick()
			f.tick()
			if c.op != nil {
				f.during[c.during] = func() {
					f.during[c.during] = nil
					c.op(f)
				}
			}
			for i, want := range c.want {
				if got := f.tick(); got != want {
					t.Errorf("tick %d stepped %q, want %q", 3+i, got, want)
				}
			}
			if n := len(f.sh.control); n != 0 {
				t.Errorf("%d ops left on the queue", n)
			}
		})
	}
}

// The drain bound: ops that refill the queue as fast as it empties — each
// enqueues its successor as it runs, the tightest a producer can be —
// cannot keep a tick from finishing, and a tick runs at most sessions ×
// Queue of them.
func TestDrainBound(t *testing.T) {
	const queue, limit = 4, 1000
	f := newStubFleet(queue, nil, "a", "b", "c")
	ran := 0
	var refill func(*shard)
	refill = func(*shard) {
		if ran++; ran < limit {
			f.enqueue(refill)
		}
	}
	f.during["a"] = func() {
		for len(f.sh.control) < queue {
			f.enqueue(refill)
		}
	}
	if got, want := f.tick(), "a b c"; got != want {
		t.Fatalf("tick stepped %q, want %q", got, want)
	}
	if bound := 3 * queue; ran != bound {
		t.Fatalf("one tick ran %d ops, want sessions × Queue = %d", ran, bound)
	}
	if n := len(f.sh.control); n != queue {
		t.Fatalf("%d ops wait for the next gap, want %d", n, queue)
	}
}

// The same bound against real producers: goroutines that keep the queue
// as full as do lets them while the test goroutine ticks. Every tick
// returns having run at most sessions × Queue ops, every caller is
// answered, and do's result agrees with whether its op ran.
func TestDrainBoundConcurrent(t *testing.T) {
	const queue, producers, ticks = 4, 6, 50
	f := newStubFleet(queue, nil, "a", "b", "c")
	var (
		wg   sync.WaitGroup
		quit atomic.Bool
		ops  int // written by ops only: the shard goroutine
	)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !quit.Load() {
				executed := false
				if ran := f.sh.do(func(*shard) { executed = true; ops++ }); ran != executed {
					t.Errorf("do reported %v for an op whose fn ran = %v", ran, executed)
					return
				}
			}
		}()
	}
	for i := 0; i < ticks; i++ {
		before := ops
		if got, want := f.tick(), "a b c"; got != want {
			t.Fatalf("tick %d stepped %q, want %q", i, got, want)
		}
		if n := ops - before; n > 3*queue {
			t.Fatalf("tick %d ran %d ops, more than sessions × Queue = %d", i, n, 3*queue)
		}
		runtime.Gosched()
	}
	quit.Store(true)
	idle := make(chan struct{})
	go func() { wg.Wait(); close(idle) }()
	for {
		select {
		case <-idle:
			return
		default:
			f.sh.drain()
			runtime.Gosched()
		}
	}
}

// A shard stopped mid-tick finishes the tick, serving what was queued when
// each gap opened; an op that got onto the queue behind those is never run,
// and its do returns false.
func TestDoOnShardStoppedMidTick(t *testing.T) {
	f := newStubFleet(1, nil, "a", "b")
	var (
		executed atomic.Bool
		result   = make(chan bool)
	)
	f.during["b"] = func() {
		// The queue (depth 1) is full, so the caller below blocks in do
		// until the last gap's drain — whose count of one was taken
		// already — has received this op; then it is too late for the tick.
		f.enqueue(func(*shard) { f.log = append(f.log, "op") })
		go func() { result <- f.sh.do(func(*shard) { executed.Store(true) }) }()
		close(f.sh.stop) // Drain arrives while b steps
	}
	if got, want := f.tick(), "a b op"; got != want {
		t.Fatalf("tick stepped %q, want %q", got, want)
	}
	close(f.sh.done) // run sees stop after the tick and exits
	if <-result {
		t.Fatal("do returned true on a shard that stopped before running its op")
	}
	if executed.Load() {
		t.Fatal("an op enqueued behind the last gap's drain ran")
	}
	if f.sh.do(func(*shard) { executed.Store(true) }) || executed.Load() {
		t.Fatal("do ran an op on a stopped shard")
	}
}

// Every op is observed where it is executed: one queue-wait and one
// run-time sample and one shard-op span each, in a tick's gap or between
// ticks alike, and a manual step no longer passes for a shard tick.
func TestOpsAreObserved(t *testing.T) {
	reg := obs.NewRegistry()
	f := newStubFleet(4, reg, "a", "b")
	f.during["a"] = func() {
		f.enqueue(func(*shard) {})
		f.enqueue(func(sh *shard) { sh.stepN(f.byName["b"], 2) })
	}
	f.tick()
	f.enqueue(func(*shard) {})
	f.sh.drain()
	var sb strings.Builder
	if err := obs.WriteProm(&sb, reg, nil); err != nil {
		t.Fatal(err)
	}
	for _, hist := range []string{"parallax_serve_queue_wait_us", "parallax_serve_op_us"} {
		if !strings.Contains(sb.String(), "\n"+hist+"_count 3\n") {
			t.Errorf("%s did not count 3 ops:\n%s", hist, sb.String())
		}
	}
	for span, want := range map[string]int64{"shard-op": 3, "shard-tick": 1} {
		if n, _ := f.sh.tr.SpanTotal(f.sh.tr.Span(span)); n != want {
			t.Errorf("%d %s spans, want %d", n, span, want)
		}
	}
}
