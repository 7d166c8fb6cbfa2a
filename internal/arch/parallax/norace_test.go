//go:build !race

package parallax

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
