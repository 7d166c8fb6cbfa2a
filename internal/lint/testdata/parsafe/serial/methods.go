// methods.go is the second file of the serial fixture package: the
// directive and the `// want` expectations must both work on method
// declarations, and the harness must type-check all files of a
// multi-file testdata package together.
package serial

type ring struct {
	buf []int
}

//paraxlint:noalloc
func (r *ring) grow(n int) {
	r.buf = make([]int, n) // want "call to make allocates"
}

//paraxlint:noalloc
func (r *ring) push(v int) {
	r.buf = append(r.buf, v) // grow-in-place: allowed
}
