package world

import (
	"sync"
	"sync/atomic"
)

// pool is the engine's persistent worker pool: the paper's work-queue
// model with persistent worker threads, which "eliminate thread creation
// and destruction costs". Workers live for the lifetime of the world.
// The queue is one dispatch — a kind of work item and a count of them,
// from one phase of one world's step — and a cursor that the workers
// and the calling goroutine (World.run, as worker 0) all claim indices
// from.
type pool struct {
	n    int
	wake chan struct{} // one token per worker woken for the dispatch in flight
	wg   sync.WaitGroup

	// The dispatch in flight: written by start before its wake-ups,
	// read-only until finish has waited, then cleared so an idle pool
	// holds no reference to a world.
	w    *World
	sp   span         // the kind of item: its item span
	end  int32        // indices [0, end) are claimed off the cursor
	next atomic.Int32 // first unclaimed index
}

// newPool starts n persistent workers with ids 1..n (0 is the main
// thread); the id selects per-thread scratch and the trace lane.
func newPool(n int) *pool {
	p := &pool{n: n, wake: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		go p.loop(i + 1)
	}
	return p
}

// loop is one persistent worker: each wake-up token is one dispatch to
// help drain, until the pool is closed. It is only the handoff — the
// wake-up receive and wg.Done — and stays outside the graph paraxlint
// checks; the work runs under drain.
func (p *pool) loop(worker int) {
	for range p.wake {
		p.drain(worker)
		p.wg.Done()
	}
}

// drain claims indices of the dispatch in flight off the cursor and runs
// them as the given worker until none is left. An item's outputs land in
// slots indexed by the item, so who claimed it shows in no result.
// Everything runItem can reach from here runs concurrently with the
// other workers — drain is the engine's one parsafe root.
//
//paraxlint:parroot every pool work item runs under it
func (p *pool) drain(worker int) {
	for {
		i := p.next.Add(1) - 1
		if i >= p.end {
			return
		}
		p.w.runItem(worker, p.sp, int(i))
	}
}

// start publishes a dispatch of items [0, end) of kind sp and wakes a
// worker per item, up to all of them. It is the single place in the
// engine that pairs wg.Add with the worker-side wg.Done; the sends never
// block, because finish has seen every earlier token consumed.
func (p *pool) start(w *World, sp span, end int) {
	p.w, p.sp, p.end = w, sp, int32(end)
	p.next.Store(0)
	k := min(p.n, end)
	p.wg.Add(k)
	for i := 0; i < k; i++ {
		p.wake <- struct{}{}
	}
}

// finish blocks until every woken worker has left drain, then drops the
// world.
func (p *pool) finish() {
	p.wg.Wait()
	p.w = nil
}

// close stops the workers.
func (p *pool) close() { close(p.wake) }
