// Package determinism exercises the determinism analyzer: map-range
// hazards, global math/rand state and wall-clock reads.
package determinism

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

func globalRand() int {
	return rand.Intn(10) // want "global rand.Intn"
}

func seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // explicit seed: allowed
	return r.Intn(10)
}

func clock() time.Time {
	return time.Now() // want "time.Now leaks wall-clock"
}

func waivedClock() time.Time {
	return time.Now() //paraxlint:allow(time) harness timing line, stripped before comparison
}

func printRange(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want "random order"
	}
}

func writeRange(m map[string]int, buf *bytes.Buffer) {
	for k := range m {
		buf.WriteString(k) // want "random order"
	}
}

func unsortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "random element order"
	}
	return keys
}

func sortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // sorted below: allowed
	}
	sort.Strings(keys)
	return keys
}

// sortInts is the package's own sort; like sort.*, calling it on the
// appended slice after the loop restores a deterministic order.
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}

func ownSortedKeys(m map[int]bool) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k) // sorted below by the package's own sort: allowed
	}
	sortInts(keys)
	return keys
}

// reverseInts is no sort, whatever it is called on.
func reverseInts(xs []int) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}

func reversedKeys(m map[int]bool) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k) // want "random element order"
	}
	reverseInts(keys)
	return keys
}

func floatAccum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want "order-dependent"
	}
	return sum
}

func localAccum(m map[string]int) int {
	n := 0
	for range m {
		n++ // integer count is order-independent: allowed
	}
	return n
}
