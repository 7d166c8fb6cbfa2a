package world

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/joint"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

// TestStepSteadyStateAllocs holds Step to the arena contract (DESIGN.md
// "Scratch-arena memory model"): once a scene has reached its size, a
// step allocates nothing — plain, traced, traced with the series ring and
// the anomaly detector, and on the incremental broad phase, at one thread
// and through the pool. The window must allocate nothing in total, not
// nothing on average, and only the engine's allocations count: the heap
// profile at one sample per allocation gives each its stack, and a stack
// with no frame in the engine's non-test code belongs to the runtime's
// own goroutines (the scavenger's timers).
//
// The gate runs on one P, as testing.AllocsPerRun does. On two, a goroutine
// that parks on one P and resumes on another moves a sudog between the
// Ps' caches; a P whose cache runs dry refills from the central cache,
// which every collection empties, so after the collections that publish
// the profile the runtime allocates sudogs for the pool's wake-ups and
// waits. A settled engine triggers no collection of its own.
func TestStepSteadyStateAllocs(t *testing.T) {
	const settle, window = 150, 50
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Set before any world is built: a P's next sample point was drawn at
	// the old rate.
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	for _, sc := range []struct {
		name  string
		build func(threads int) *World
	}{
		{"plain", detWorld},
		{"traced", func(threads int) *World {
			w := detWorld(threads)
			w.SetObs(obs.NewTracer(), obs.NewRegistry(), "alloc")
			return w
		}},
		{"traced+series+health", func(threads int) *World {
			w, _, _ := telWorld(threads)
			return w
		}},
		{"incsap", incSAPWorld},
	} {
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/threads=%d", sc.name, threads), func(t *testing.T) {
				w := sc.build(threads)
				defer w.SetThreads(1) // stops the worker pool
				for i := 0; i < settle; i++ {
					w.Step()
				}
				before := engineAllocs()
				for i := 0; i < window; i++ {
					w.Step()
				}
				n, sites := 0, ""
				for stk, count := range engineAllocs() {
					if d := count - before[stk]; d > 0 {
						n += int(d)
						sites += fmt.Sprintf("\n%d allocation(s) at\n%s", d, stackText(stk))
					}
				}
				if n > 0 {
					t.Errorf("steps %d-%d allocate %d objects, want 0:%s", settle+1, settle+window, n, sites)
				}
			})
		}
	}
}

// engineAllocs returns the heap profile's allocation count per stack, for
// the stacks through the engine's non-test code. The profile is published
// at GC and may be two cycles old, so two collections come first.
func engineAllocs() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	out := make(map[[32]uintptr]int64)
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "github.com/parallax-arch/parallax/internal/phys/") &&
				!strings.HasSuffix(f.File, "_test.go") {
				out[r.Stack0] += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return out
}

// stackText formats a profile stack one frame a line.
func stackText(stk [32]uintptr) string {
	var b strings.Builder
	frames := runtime.CallersFrames(stk[:])
	for {
		f, more := frames.Next()
		if f.Function != "" {
			fmt.Fprintf(&b, "\t%s\n\t\t%s:%d\n", f.Function, f.File, f.Line)
		}
		if !more {
			return b.String()
		}
	}
}

// TestWorkersSizedForLargestItem pins where per-worker solve storage
// grows: on the serial path, for the step's largest work item, so no
// worker grows its own and what a step allocates does not depend on
// which worker claims which item. Three hinged chains in free fall make
// islands of 5, 20 and 65 rows; after one step at two threads every
// worker's row buffer holds the largest item, and reserving a workspace
// for it moves none of the workspace's buffers.
func TestWorkersSizedForLargestItem(t *testing.T) {
	w := New() // no ground, no contacts: the rows are the joints'
	w.SetThreads(2)
	defer w.SetThreads(1)
	for c, links := range []int{2, 5, 14} {
		prev := int32(-1)
		for i := 0; i < links; i++ {
			x, y := float64(20*c), 10-0.5*float64(i)
			b, _ := w.AddBody(geom.Sphere{R: 0.2}, 1, m3.V(x, y, 0), m3.QIdent, 0, 0)
			if prev >= 0 {
				w.AddJoint(joint.NewHinge(w.Bodies, prev, b, m3.V(x, y+0.25, 0), m3.V(0, 0, 1)))
			}
			prev = b
		}
	}
	w.Step()

	sc := &w.scratch
	largest := 0
	for i, is := range sc.islands {
		rows := is.DOF
		if q := sc.partner[i]; q >= 0 {
			rows += sc.islands[q].DOF
		}
		largest = max(largest, rows)
	}
	if largest != 65 {
		t.Fatalf("largest item has %d rows, want the 14-link chain's 65", largest)
	}
	for k := range sc.rows {
		if got := cap(sc.rows[k]); got < largest {
			t.Errorf("worker %d: row buffer holds %d rows, want at least %d", k, got, largest)
		}
		ws := reflect.ValueOf(&sc.ws[k]).Elem()
		type buf struct{ ptr, cap int }
		held := make([]buf, ws.NumField())
		for f := range held {
			if v := ws.Field(f); v.Kind() == reflect.Slice {
				held[f] = buf{int(v.Pointer()), v.Cap()}
			}
		}
		sc.ws[k].Reserve(largest, len(w.Bodies))
		for f := range held {
			if v := ws.Field(f); v.Kind() == reflect.Slice && (buf{int(v.Pointer()), v.Cap()}) != held[f] {
				t.Errorf("worker %d: workspace %s grew from %d to %d for the largest item", k, ws.Type().Field(f).Name, held[f].cap, v.Cap())
			}
		}
	}
}
