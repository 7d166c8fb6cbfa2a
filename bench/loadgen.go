package main

import (
	"sync"
	"time"
)

// openLoop issues one operation per entry of a fixed schedule, regardless
// of how the system keeps up: operation i is due at start + due[i] (due is
// ascending). The workers take alternate schedule slots (worker k owns
// i = k, k+workers, ...), so a worker stuck in a slow operation delays only
// its own later slots. A worker that reaches a slot late sends at once;
// send is handed the due time, and a caller that times each operation from
// it — not from when it was sent — counts the wait a stall imposes on the
// operations behind it. The return value is how late the generator ran at
// worst (sent - due).
func openLoop(workers int, due []time.Duration, send func(worker, i int, due time.Time)) time.Duration {
	start := time.Now().Add(time.Millisecond)
	n := len(due)
	late := make([]time.Duration, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < n; i += workers {
				due := start.Add(due[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				if l := time.Since(due); l > late[k] {
					late[k] = l
				}
				send(k, i, due)
			}
		}(k)
	}
	wg.Wait()
	worst := time.Duration(0)
	for _, l := range late {
		if l > worst {
			worst = l
		}
	}
	return worst
}
