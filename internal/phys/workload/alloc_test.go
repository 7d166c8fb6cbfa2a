package workload

import (
	"fmt"
	"runtime"
	"testing"
)

// TestStepAllocationsAllBenchmarks holds World.Step to its arena contract
// on every paper benchmark, not just the scenes whose topology sits
// still: after 30 warm-up steps, 300 steps at scale 0.5 may average at
// most 2 heap allocations each, at one thread and through the pool at
// three. Explosions, fracture, breakable joints and high-speed impacts
// change the island partition every step; what is left under the bound is
// detonations (a blast geom and its hit sets, a cold path) and buffers
// reaching a new high-water mark as a scene piles up. Mallocs counts the
// whole process, so the workers' allocations are in it and a stray
// runtime one is what the slack above the measured 0.5 is for.
func TestStepAllocationsAllBenchmarks(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("steps every benchmark 330 times at scale 0.5, twice; ten times slower under the race detector, which has nothing to find in an allocation count")
	}
	const warm, steps, bound = 30, 300, 2.0
	for _, b := range All {
		for _, threads := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/threads=%d", b.Name, threads), func(t *testing.T) {
				w := b.Build(0.5)
				w.SetThreads(threads)
				defer w.SetThreads(1) // stops the worker pool
				for i := 0; i < warm; i++ {
					w.Step()
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < steps; i++ {
					w.Step()
				}
				runtime.ReadMemStats(&after)
				perStep := float64(after.Mallocs-before.Mallocs) / steps
				t.Logf("%.2f allocations per step", perStep)
				if perStep > bound {
					t.Errorf("%.2f allocations per step over steps %d-%d, want at most %v", perStep, warm+1, warm+steps, bound)
				}
			})
		}
	}
}
