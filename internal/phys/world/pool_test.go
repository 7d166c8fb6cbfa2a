package world

import (
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

// TestPoolRunsEachItemOnce drives World.run directly: dispatches of 0,
// 1, n and 50n queued items (n = pool workers), each with two main items
// beside them, at thread counts raised and lowered in between. The items
// are position integrations of one body each, so an item that ran twice
// or not at all — whichever of the caller and the workers claimed it —
// leaves its body off the expected position. After every dispatch the
// pool must hold neither the world nor the item list.
func TestPoolRunsEachItemOnce(t *testing.T) {
	const maxWorkers = 4
	const nBodies = 50*maxWorkers + 2
	w := New()
	w.Gravity = m3.Zero
	vel := m3.V(0.25, 1, -0.5)
	want := make([]m3.Vec, nBodies)
	items := make([]int32, nBodies)
	for i := range want {
		want[i] = m3.V(float64(i), 10, 0)
		bi, _ := w.AddBody(geom.Sphere{R: 0.1}, 1, want[i], m3.QIdent, 0, 0)
		w.Bodies[bi].LinVel = vel
		items[i] = int32(i)
	}
	// One body per chunk: item i is "integrate body i".
	sc := &w.scratch
	sc.chunkN, sc.chunkSize = nBodies, 1
	sc.integ = make([]int, nBodies)

	for _, threads := range []int{3, 2, 5, 1, 2} {
		w.Threads = threads
		n := max(threads-1, 1)
		for _, k := range []int{0, 1, n, 50 * n} {
			clear(sc.integ)
			w.run(phasePos, items[:k], items[k:k+2])
			for i := range want {
				ran := 0
				if i < k+2 {
					ran = 1
					want[i] = want[i].Add(vel.Scale(w.Dt))
				}
				if sc.integ[i] != ran || w.Bodies[i].Pos != want[i] {
					t.Fatalf("threads=%d, %d queued items: item %d ran %d times by its merge slot, body at %v; want %d and %v",
						threads, k, i, sc.integ[i], w.Bodies[i].Pos, ran, want[i])
				}
			}
			switch p := w.pool; {
			case threads == 1 && p != nil:
				t.Fatalf("threads=1: the pool outlived the last multi-threaded dispatch")
			case threads > 1 && (p == nil || p.n != threads-1):
				t.Fatalf("threads=%d: pool %+v, want %d workers", threads, p, threads-1)
			case threads > 1 && (p.w != nil || p.items != nil):
				t.Fatalf("threads=%d, %d queued items: the idle pool still holds its last dispatch", threads, k)
			}
		}
	}
}
