package serve

import "syscall"

// osYield is sched_yield(2): the calling thread goes to the back of its
// CPU's run queue, so a thread that has been woken on that CPU and is
// waiting for it runs now. With nobody waiting it returns at once.
func osYield() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
