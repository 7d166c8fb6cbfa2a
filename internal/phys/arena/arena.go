// Package arena holds the growth rule for step-arena buffers that are
// rewritten from scratch every step. Buffers whose contents carry over
// between steps grow in place instead, one zero value at a time:
//
//	for len(x) < n { x = append(x, zero) }
//
// DESIGN.md "Scratch-arena memory model" has the whole discipline.
package arena

// Grow returns s re-sliced to length n, reallocating only when its
// capacity is too small. Contents are unspecified: callers overwrite or
// clear every element.
func Grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n) //paraxlint:allow(alloc) capacity growth to the largest n seen, then reused
	}
	return s[:n]
}
