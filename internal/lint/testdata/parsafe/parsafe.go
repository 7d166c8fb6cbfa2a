// Package parsafe seeds one violation of every finding kind the
// module-spanning parsafe analyzer can produce, plus the clean shapes
// it must stay silent on. The dep subpackage proves that propagation
// does not stop at package boundaries.
package parsafe

import (
	"math"
	"os"
	"sync"

	"paraxlint.test/parsafe/dep"
)

// hits and state are shared package state: any reachable write races.
var (
	hits  int
	state struct{ count int }
	mu    sync.Mutex
)

type pair struct{ a, b int }

// shape's dynamic dispatch devirtualizes over every concrete type in
// the analyzed set (class-hierarchy analysis).
type shape interface{ area() float64 }

type circle struct{ r float64 }

// area is reachable only through the interface call in worker: its body
// is still checked (and is clean).
func (c circle) area() float64 { return math.Pi * c.r * c.r }

// boxed embeds the interface: its promoted area method is abstract, so
// CHA must skip it (the embedded value is itself one of the other
// implementors) rather than report a missing body.
type boxed struct{ shape }

// phantom has no implementation anywhere in the analyzed set.
type phantom interface{ vanish() }

// locker is implemented by padlock through an embedded concrete type
// from outside the module, so devirtualization lands on an external
// body.
type locker interface{ Lock() }

type padlock struct{ sync.Mutex }

// sink keeps the worker's outputs in per-worker state, mirroring the
// engine's scratch arenas: field writes are fine, only package-level
// state is shared.
type sink struct {
	n     int
	pid   int
	root  float64
	area  float64
	name  string
	vals  []float64
	tmp   []float64
	ints  []int
	blast []int
	ptr   *pair
	pad   padlock
	cb    func()
	fns   [2]func()
}

//paraxlint:parroot fixture worker: everything below is reachable
func worker(s *sink, sh shape, p phantom, fn func() int) {
	s.ints = dep.Frame1(s.ints)
	s.area = sh.area()
	s.root = math.Sqrt(s.area)

	hits++            // want "write to package-level variable hits in parroot-reachable code"
	state.count = s.n // want "write to package-level variable state in parroot-reachable code"

	ch := make(chan int, 1) // want "call to make allocates"
	ch <- s.n               // want "channel send in parroot-reachable code"
	s.n = <-ch              // want "channel receive in parroot-reachable code"
	select {}               // want "select statement in parroot-reachable code"
	for range ch {          // want "range over channel in parroot-reachable code"
	}

	go helper() // want "go statement allocates a goroutine stack"
	mu.Lock()   // want "sync.Lock in parroot-reachable code"
	mu.Unlock() // want "sync.Unlock in parroot-reachable code"

	s.n += fn()    // want "call through func value fn: concrete target unknown to parsafe"
	s.cb()         // want "call through func-typed field cb: concrete target unknown to parsafe"
	s.fns[0]()     // want "call through computed func value: concrete target unknown to parsafe"
	p.vanish()     // want "interface call vanish has no implementation in the analyzed set"
	lockIt(&s.pad) // clean: static call into the analyzed set

	s.pid = os.Getpid() // want "call to os.Getpid: body outside the parsafe-analyzed set"

	s.tmp = append(s.vals, s.root)  // want "append may allocate a new backing array"
	s.ptr = &pair{a: s.n, b: s.pid} // want "&-composite literal allocates"
	s.name = s.name + "x"           // want "string concatenation allocates"
	_ = func() int { return s.n }   // want "function literal captures variables and allocates a closure"

	s.blast = detonate() // clean: detonate is coldpath, cut from the graph
	subworker(s)

	//paraxlint:allow(parsafe) fixture: sanctioned dynamic dispatch, mirroring the pool's task trampoline
	s.n += fn()
}

// lockIt's interface call devirtualizes to the promoted Lock of the
// embedded sync.Mutex — a body outside the analyzed set.
func lockIt(l locker) {
	l.Lock() // want "interface call Lock devirtualizes to .*sync.Mutex..Lock: body outside the analyzed set"
}

// helper is reachable via the go statement in worker, which already
// checks it for allocation: its own serial-root directive is redundant.
//
//paraxlint:noalloc
func helper() { // want "redundant //paraxlint:noalloc on helper: already reached from another root through worker"
	_ = hits // reads of shared state are fine; only writes race
}

// subworker is an entry point worker already calls directly, so the
// static graph reaches it without a directive of its own.
//
//paraxlint:parroot fixture: dispatched by worker
func subworker(s *sink) { // want "redundant //paraxlint:parroot on subworker: already reached from another parroot through worker"
	s.n++
}

// both carries the two root kinds at once: the parroot rule set
// includes the allocation rule.
//
//paraxlint:parroot fixture
//paraxlint:noalloc
func both() {} // want "redundant //paraxlint:noalloc on both: a parroot is checked for allocation already"

// detonate allocates by design: the coldpath directive cuts it from the
// graph, and the call in worker marks the directive load-bearing.
//
//paraxlint:coldpath fixture event path, fires rarely
func detonate() []int { return make([]int, 64) }

// unusedCold's directive has no parroot-reachable caller: stale.
//
//paraxlint:coldpath fixture: nothing reaches this
func unusedCold() {} // want "stale //paraxlint:coldpath on unusedCold: no root-reachable caller"

// confused carries both directives at once.
//
//paraxlint:parroot fixture conflict
//paraxlint:coldpath fixture conflict
func confused() {} // want "confused is annotated both as a root and coldpath; pick one"

// spotless is clean: its waiver suppresses nothing and is itself a
// finding.
func spotless(x int) int {
	//paraxlint:allow(parsafe) fixture: nothing here to suppress // want "unused //paraxlint:allow.parsafe. comment suppresses nothing"
	return x * 2
}

// orphan is unreachable: its allocation is not reported.
func orphan() []int { return make([]int, 4) }
