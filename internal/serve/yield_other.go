//go:build !linux

package serve

// osYield does nothing where there is no sched_yield(2) to call: the tick
// then leaves it to the kernel to preempt the shard's thread for a handler.
func osYield() {}
