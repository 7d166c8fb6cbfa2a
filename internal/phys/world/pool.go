package world

import "sync"

// task is one unit of pool work: item of phase ph of world w's current
// step (an island index, a cloth index, a chunk index). The world rides
// in the task rather than in the pool so an idle pool holds no reference
// to it.
type task struct {
	w    *World
	ph   phase
	item int32
}

// pool is the engine's persistent worker pool: the paper's work-queue
// model with persistent worker threads, which "eliminate thread creation
// and destruction costs". Workers live for the lifetime of the world.
type pool struct {
	n     int
	tasks chan task
	wg    sync.WaitGroup
}

// newPool starts n persistent workers with ids 1..n (0 is the main
// thread); the id selects per-thread scratch and the trace lane.
//
//paraxlint:coldpath runs when Threads changes; starts the worker goroutines
func newPool(n int) *pool {
	p := &pool{n: n, tasks: make(chan task, 4*n)}
	for i := 0; i < n; i++ {
		go p.loop(i + 1)
	}
	return p
}

// loop is one persistent worker: it drains the task channel until the
// pool is closed. Everything runItem can reach from here runs
// concurrently with the other workers — loop is the engine's one
// parsafe root.
//
//paraxlint:parroot persistent pool worker; every work item runs under it
func (p *pool) loop(worker int) {
	//paraxlint:allow(parsafe) the pool's own task-channel receive: the one sanctioned handoff
	for t := range p.tasks {
		t.w.runItem(worker, t.ph, int(t.item))
		//paraxlint:allow(parsafe) the pool's own WaitGroup handoff, paired with post's Add
		p.wg.Done()
	}
}

// post enqueues one task per item. It is the single place in the engine
// that pairs wg.Add with the worker-side wg.Done; every parallel phase
// funnels through it via World.run.
func (p *pool) post(w *World, ph phase, items []int32) {
	p.wg.Add(len(items))
	for _, it := range items {
		p.tasks <- task{w, ph, it}
	}
}

// wait blocks until all posted tasks have completed.
func (p *pool) wait() { p.wg.Wait() }

// close stops the workers.
func (p *pool) close() { close(p.tasks) }

// ensurePool (re)creates the world's pool to match the thread count.
func (w *World) ensurePool() *pool {
	want := w.Threads - 1 // the main thread is worker 0
	if want < 1 {
		if w.pool != nil {
			w.pool.close()
			w.pool = nil
		}
		return nil
	}
	if w.pool == nil || w.pool.n != want {
		if w.pool != nil {
			w.pool.close()
		}
		w.pool = newPool(want)
	}
	return w.pool
}
