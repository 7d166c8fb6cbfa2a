// Package arena holds the step arena's one growth rule: every buffer a
// step sizes goes through Grow. DESIGN.md "Scratch-arena memory model"
// has the whole discipline.
package arena

// Grow returns s re-sliced to length n. When its capacity is short it
// moves s to a new array with append's amortised headroom, copying
// s[:cap(s)], so elements that own buffers or carry stamps keep them;
// elements never written are zero.
func Grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = s[:cap(s)]
		return append(s, make([]T, n-len(s))...) //paraxlint:allow(alloc) capacity growth past the largest n seen, then reused
	}
	return s[:n]
}
