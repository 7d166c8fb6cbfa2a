// Package os models the operating-system overhead the paper measures
// when scaling worker threads (section 6.2): under Solaris 10, each
// worker thread used ~850KB of memory at 2-4 threads, jumping to ~5MB
// per thread at 8 threads — kernel memory accesses inside Island
// Processing and Cloth then blow up the L2 miss count by ~5x.
package os

// PerThreadBytes returns the modeled per-worker-thread memory footprint
// (heap arenas, stack, kernel bookkeeping) as a function of thread
// count, reproducing the measured 850KB -> 5MB inflation.
func PerThreadBytes(threads int) int {
	switch {
	case threads <= 4:
		return 850 << 10
	case threads >= 8:
		return 5 << 20
	default:
		// Interpolate 5..7 threads.
		lo, hi := 850<<10, 5<<20
		return lo + (hi-lo)*(threads-4)/4
	}
}

// KernelStream emits the kernel/per-thread memory references of one
// parallel-phase execution with the given thread count: each worker
// sweeps a slice of its private region proportional to its footprint.
// emit receives (addr, write); threadBase maps a worker index to its
// private region base address.
func KernelStream(threads int, threadBase func(int) uint64, emit func(addr uint64, write bool)) {
	per := PerThreadBytes(threads)
	// Workers touch a fraction of their footprint per phase execution:
	// allocator metadata, stack frames, and (beyond 4 threads) the
	// kernel structures that caused the measured blow-up.
	touched := per
	const block = 64
	for t := 0; t < threads; t++ {
		base := threadBase(t)
		for off := 0; off < touched; off += block {
			emit(base+uint64(off), off%(4*block) == 0)
		}
	}
}
