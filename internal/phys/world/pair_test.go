package world

import (
	"slices"
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/island"
)

// TestPairIslandsRule pins which islands pairIslands puts into one work
// item. Pairing changes no value the step produces, so no output check can
// see a wrong rule; this table is the only thing that does. want lists the
// partner of each island in list order (-1 = an item alone).
func TestPairIslandsRule(t *testing.T) {
	for _, c := range []struct {
		name    string
		dofs    []int
		threads int
		want    []int32
	}{
		// Ragdoll@1's queued islands, settled: neighbours pair at one
		// thread; at two, a pair may not outgrow the largest island,
		// which two ragdolls in contact make twice as big.
		{"ragdoll", []int{105, 99, 99, 93, 108}, 1, []int32{1, -1, 3, -1, -1}},
		{"ragdoll", []int{105, 99, 99, 93, 108}, 2, []int32{-1, -1, -1, -1, -1}},
		{"ragdoll", []int{105, 99, 99, 93, 213}, 2, []int32{1, -1, 3, -1, -1}},
		// Mix@1's queued list as the builder orders it: the three big
		// islands never pair, with a neighbour or with each other, at
		// either thread count; the small ones do.
		{"mix", []int{2571, 51, 45, 2949, 96, 42, 2973, 180, 120}, 1, []int32{-1, 2, -1, -1, 5, -1, -1, 8, -1}},
		{"mix", []int{2571, 51, 45, 2949, 96, 42, 2973, 180, 120}, 2, []int32{-1, 2, -1, -1, 5, -1, -1, 8, -1}},
		{"mix-big-neighbours", []int{3180, 2598, 51}, 1, []int32{-1, -1, -1}},
		{"mix-big-neighbours", []int{3180, 2598, 51}, 2, []int32{-1, -1, -1}},
		// The cap is inclusive, and there is no size-ratio guard.
		{"at-cap", []int{512, 512}, 1, []int32{1, -1}},
		{"over-cap", []int{512, 513}, 1, []int32{-1, -1}},
		{"uneven", []int{600, 3}, 1, []int32{1, -1}},
		// Above one thread a pair may equal the largest island, not
		// exceed it.
		{"at-largest", []int{60, 40, 100}, 2, []int32{1, -1, -1}},
		{"over-largest", []int{60, 41, 100}, 2, []int32{-1, -1, -1}},
		{"over-largest", []int{60, 41, 100}, 1, []int32{1, -1, -1}},
		// Zero-row islands (Mix's main list is mostly these) pair too.
		{"empty", []int{0, 0, 0}, 1, []int32{1, -1, -1}},
	} {
		w := New()
		w.SetThreads(c.threads)
		sc := &w.scratch
		sc.islands = make([]island.Island, len(c.dofs))
		sc.partner = make([]int32, len(c.dofs))
		list := make([]int32, len(c.dofs))
		maxDOF := 0
		for i, d := range c.dofs {
			sc.islands[i].DOF = d
			sc.partner[i] = -1
			list[i] = int32(i)
			maxDOF = max(maxDOF, d)
		}
		items := w.pairIslands(list, maxDOF)
		w.SetThreads(1)
		if !slices.Equal(sc.partner, c.want) {
			t.Errorf("%s at %d threads %v: partners %v, want %v", c.name, c.threads, c.dofs, sc.partner, c.want)
		}
		// Every island is in exactly one item.
		var covered []int32
		for _, a := range items {
			covered = append(covered, a)
			if p := sc.partner[a]; p >= 0 {
				covered = append(covered, p)
			}
		}
		slices.Sort(covered)
		for i, a := range covered {
			if a != int32(i) || len(covered) != len(c.dofs) {
				t.Errorf("%s at %d threads: items %v cover islands %v", c.name, c.threads, items, covered)
				break
			}
		}
	}
}
