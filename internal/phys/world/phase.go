package world

// span indexes the step pipeline's trace spans (World.spans). spanTable
// below is the one place their names live.
type span uint8

const (
	spanStep span = iota
	// The serialized step phases (paper Fig 1, plus integrate), in
	// execution order; recorded on the main-thread lane.
	spanBroad
	spanNarrow
	spanIslandGen
	spanIslandProc
	spanIntegrate
	spanCloth
	// Work-item spans, recorded on the lane of whichever worker ran the
	// item, inline or pooled. Each but spanSolve is also the kind of a
	// dispatch (runItem); the velocity and position integration kinds
	// share one trace name.
	spanRefreshChunk
	spanSweepChunk
	spanNarrowChunk
	spanEdgeChunk
	spanVelChunk
	spanPosChunk
	spanSyncChunk
	spanIsland
	spanSolve // the LCP solve nested inside spanIsland
	spanClothObj
	numSpans
)

// spanTable describes every span of the step pipeline. SetObs registers
// its names with the tracer and SetSeries derives the per-phase timing
// channels from it.
var spanTable = [numSpans]struct {
	name string
	// series names the per-step wall-time channel of a step phase; empty
	// for every other span.
	series string
}{
	spanStep:         {name: "step"},
	spanBroad:        {name: "broadphase", series: "phase/broad_ns"},
	spanNarrow:       {name: "narrowphase", series: "phase/narrow_ns"},
	spanIslandGen:    {name: "island-creation", series: "phase/island_creation_ns"},
	spanIslandProc:   {name: "island-processing", series: "phase/island_processing_ns"},
	spanIntegrate:    {name: "integrate", series: "phase/integrate_ns"},
	spanCloth:        {name: "cloth", series: "phase/cloth_ns"},
	spanRefreshChunk: {name: "refresh-chunk"},
	spanSweepChunk:   {name: "sweep-chunk"},
	spanNarrowChunk:  {name: "narrow-chunk"},
	spanEdgeChunk:    {name: "edge-chunk"},
	spanVelChunk:     {name: "integrate-chunk"},
	spanPosChunk:     {name: "integrate-chunk"},
	spanSyncChunk:    {name: "sync-chunk"},
	spanIsland:       {name: "island"},
	spanSolve:        {name: "solve"},
	spanClothObj:     {name: "cloth-object"},
}

// runItem executes item index item of kind sp on the given worker (0 =
// the calling thread), inside the item span. It is the only way a worker
// body is ever entered. An index means what its kind says: a chunk for
// the chunked kinds, a slot of the step's island work list, or a cloth.
// The switch — rather than a func value stored per dispatch — keeps the
// worker call graph static, so paraxlint follows it from pool.drain and
// from Step without per-worker annotations, and avoids the method values
// that would otherwise have to be bound once and kept in World fields
// (creating one allocates).
func (w *World) runItem(worker int, sp span, item int) {
	lane := w.laneFor(worker)
	id := w.spans[sp]
	lane.Begin(id)
	sc := &w.scratch
	switch sp {
	case spanRefreshChunk:
		w.refreshChunk(sc.chunkRange(item))
	case spanSweepChunk:
		w.sweepChunk(sc.chunkRange(item))
	case spanNarrowChunk:
		w.narrowChunk(sc.chunkRange(item))
	case spanEdgeChunk:
		w.edgeChunk(sc.chunkRange(item))
	case spanVelChunk:
		w.velChunk(sc.chunkRange(item))
	case spanIsland:
		w.solveIsland(worker, int(sc.items[item]))
	case spanPosChunk:
		w.posChunk(sc.chunkRange(item))
	case spanSyncChunk:
		w.syncChunk(sc.chunkRange(item))
	case spanClothObj:
		w.stepCloth(item)
	default:
		panic("world: work item of an unknown kind")
	}
	lane.End(id)
}

// run executes items [0, n) of kind sp, returning when all have
// completed. Items [0, q) go to the pool's shared cursor; the calling
// goroutine runs [q, n) and then claims queued ones alongside the
// workers, so it is busy for the whole phase. The split orders the work:
// queued items are started first, and the caller's are the ones not
// worth a claim each (islands under SmallIslandDOF) or that should not
// wait for a wake-up (the last chunk). At one thread there is no pool
// and every item runs inline in index order.
func (w *World) run(sp span, q, n int) {
	p := w.pool
	if p == nil {
		for i := 0; i < n; i++ {
			w.runItem(0, sp, i)
		}
		return
	}
	p.start(w, sp, q)
	for i := q; i < n; i++ {
		w.runItem(0, sp, i)
	}
	p.drain(0)
	p.finish()
}

// runChunks partitions n elements into min(threads, n) equal contiguous
// chunks (the paper partitions object-pairs into equal sets per worker
// thread) and runs each as one item of kind sp, the last chunk on the
// calling goroutine and the rest on the pool. The worker bodies receive
// the chunk index — not a worker id — so per-chunk result buffers merge
// deterministically whatever worker ran them. A chunk may report one
// number in its counts slot. runChunks returns the number of chunks, at
// least one, and the sum of what they reported.
func (w *World) runChunks(sp span, n int) (int, int) {
	t := max(min(w.threads, n), 1)
	sc := &w.scratch
	sc.chunkN = n
	sc.chunkSize = (n + t - 1) / t
	clear(sc.counts)
	w.run(sp, t-1, t)
	sum := 0
	for _, c := range sc.counts {
		sum += c
	}
	return t, sum
}
