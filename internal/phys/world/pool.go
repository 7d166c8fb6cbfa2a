package world

import (
	"sync"
	"sync/atomic"
)

// pool is the engine's persistent worker pool: the paper's work-queue
// model with persistent worker threads, which "eliminate thread creation
// and destruction costs". Workers live for the lifetime of the world.
// The queue is one dispatch — the items of one phase of one world's
// step — and a cursor that the workers and the calling goroutine
// (World.run, as worker 0) all claim items from.
type pool struct {
	n    int
	wake chan struct{} // one token per worker woken for the dispatch in flight
	wg   sync.WaitGroup

	// The dispatch in flight: written by start before its wake-ups,
	// read-only until finish has waited, then cleared so an idle pool
	// holds no reference to a world.
	w     *World
	ph    phase
	items []int32
	next  atomic.Int32 // first unclaimed index of items
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
// help drain, until the pool is closed. Everything runItem can reach
// from here runs concurrently with the other workers — loop is the
// engine's one parsafe root.
//
//paraxlint:parroot persistent pool worker; every work item runs under it
func (p *pool) loop(worker int) {
	//paraxlint:allow(parsafe) the pool's own wake-up receive: the one sanctioned handoff
	for range p.wake {
		p.drain(worker)
		//paraxlint:allow(parsafe) the pool's own WaitGroup handoff, paired with start's Add
		p.wg.Done()
	}
}

// drain claims items of the dispatch in flight off the cursor and runs
// them as the given worker until none is left. An item's outputs land in
// slots indexed by the item, so who claimed it shows in no result.
func (p *pool) drain(worker int) {
	for {
		i := int(p.next.Add(1)) - 1
		if i >= len(p.items) {
			return
		}
		p.w.runItem(worker, p.ph, int(p.items[i]))
	}
}

// start publishes one dispatch and wakes a worker per item, up to all of
// them. It is the single place in the engine that pairs wg.Add with the
// worker-side wg.Done; the sends never block, because finish has seen
// every earlier token consumed.
func (p *pool) start(w *World, ph phase, items []int32) {
	p.w, p.ph, p.items = w, ph, items
	p.next.Store(0)
	k := min(p.n, len(items))
	p.wg.Add(k)
	for i := 0; i < k; i++ {
		p.wake <- struct{}{}
	}
}

// finish blocks until every woken worker has left drain, then drops the
// dispatch.
func (p *pool) finish() {
	p.wg.Wait()
	p.w, p.items = nil, nil
}

// close stops the workers.
func (p *pool) close() { close(p.wake) }
