// Package serial exercises parsafe's serial root kind: a function
// annotated //paraxlint:noalloc, and everything it reaches, is checked
// for allocating constructs and nothing else. Every flagged line carries
// a `// want` expectation matched by the linttest harness.
package serial

import (
	"fmt"
	"sync"
)

// S is a carrier for append-in-place and boxing cases.
type S struct {
	buf   []int
	iface interface{}
}

// Grow exists to be taken as a method value.
func (s *S) Grow() {}

func unannotated() []int {
	return make([]int, 8) // unchecked: no root reaches it
}

//paraxlint:noalloc
func builtins(s *S, n int) {
	s.buf = append(s.buf, n)              // grow-in-place: allowed
	fresh := append([]int(nil), s.buf...) // want "append may allocate"
	_ = fresh
	b := make([]byte, n) // want "call to make allocates"
	_ = b
	p := new(S) // want "call to new allocates"
	_ = p
}

//paraxlint:noalloc
func literals(n int) {
	lit := []int{1, 2, 3} // want "slice literal allocates"
	_ = lit
	m := map[int]bool{} // want "map literal allocates"
	_ = m
	ptr := &S{} // want "composite literal allocates"
	_ = ptr
	plain := S{buf: nil} // plain struct value: no allocation
	_ = plain
}

//paraxlint:noalloc
func closures(n int) func() int {
	f := func() int { return 0 } // static closure: allowed
	_ = f
	g := func() int { return n } // want "captures variables"
	return g
}

//paraxlint:noalloc
func methodValue(s *S) {
	f := s.Grow // want "bound-method closure"
	_ = f
	s.Grow() // direct call: allowed
}

func sink(x interface{}) {}

//paraxlint:noalloc
func boxing(s *S, v int, p *S) {
	s.iface = v // want "boxes int"
	s.iface = p // pointer-shaped: allowed
	s.iface = nil
	sink(v) // want "boxes int"
	sink(p) // pointer fits the interface word: allowed
}

//paraxlint:noalloc
func strs(a, b string, bs []byte) string {
	c := a + b      // want "string concatenation allocates"
	d := string(bs) // want "conversion .* allocates"
	_ = d
	return c
}

func vsum(xs ...int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

//paraxlint:noalloc
func variadic(pre []int) {
	_ = vsum(1, 2)   // want "variadic call allocates"
	_ = vsum(pre...) // spread of a prepared slice: allowed
	_ = vsum()       // empty list passes nil: allowed
}

//paraxlint:noalloc
func printing(n int) {
	fmt.Println(n) // want "call to fmt.Println allocates"
}

//paraxlint:noalloc
func spawn() {
	go vsum(nil...) // want "goroutine stack"
}

// returnAppend hands the possibly-regrown slice back to the caller, the
// same amortized pattern as x = append(x, ...): not flagged.
//
//paraxlint:noalloc
func returnAppend(dst []int, v int) []int {
	return append(dst, v)
}

// seriesRing mirrors the telemetry series' staging/commit shape: a fixed-size
// staging array copied into a preallocated ring row each step.
type seriesRing struct {
	cur  [4]float64
	rows [][]float64
	head int
}

// commit pins that slicing an addressable array field (r.cur[:]) and
// copying it into an existing row are allocation-free, while a fresh
// conversion of the same array is not.
//
//paraxlint:noalloc
func (r *seriesRing) commit() {
	row := r.rows[r.head%len(r.rows)]
	copy(row, r.cur[:]) // array-field slice: no heap movement
	for i := range r.cur {
		r.cur[i] = 0
	}
	r.head++
	escaped := append([]float64(nil), r.cur[:]...) // want "append may allocate"
	_ = escaped
}

// step is a serial root in the shape of World.Step: it owns the handoff
// to its workers, so the channel send, the WaitGroup and the call
// through a func value — all findings under a parroot — are legal here.
// What it must not do is allocate, however deep: the make sits two
// frames down, in a function that carries no directive.
//
//paraxlint:noalloc
func step(work chan int, wg *sync.WaitGroup, cb func(), r *ring) {
	wg.Add(1)
	work <- 1
	cb()
	wg.Wait()
	r.refill(8)
}

func (r *ring) refill(n int) { r.regrow(n) }

func (r *ring) regrow(n int) {
	r.buf = make([]int, n) // want "call to make allocates"
}

// merge is reached from step2 below, so its own root directive adds
// nothing.
//
//paraxlint:noalloc
func merge(r *ring) int { // want "redundant //paraxlint:noalloc on merge: already reached from another root through step2"
	return len(r.buf)
}

//paraxlint:noalloc
func step2(r *ring) int { return merge(r) }

// coldSerial is cut from the serial graph exactly as from the parallel
// one: its allocation is not reported, and step3's call keeps the
// directive from being stale.
//
//paraxlint:coldpath fixture event path
func coldSerial() []int { return make([]int, 4) }

//paraxlint:noalloc
func step3() int { return len(coldSerial()) }
