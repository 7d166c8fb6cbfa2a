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
	// item, inline or pooled.
	spanRefreshChunk
	spanSweepChunk
	spanNarrowChunk
	spanEdgeChunk
	spanIntegChunk
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
	spanIntegChunk:   {name: "integrate-chunk"},
	spanSyncChunk:    {name: "sync-chunk"},
	spanIsland:       {name: "island"},
	spanSolve:        {name: "solve"},
	spanClothObj:     {name: "cloth-object"},
}

// phase names one kind of pool work item. A dispatch is one phase and a
// list of items: chunk indices for the chunked phases, island or cloth
// indices for the other two.
type phase uint8

const (
	phaseRefresh phase = iota // AABB refresh over a chunk of w.Geoms
	phaseSweep                // sweep-and-prune runs of a chunk of start positions
	phaseNarrow               // contact generation over a chunk of w.pairBuf
	phaseEdge                 // island edges over a chunk of joints+contacts
	phaseVel                  // velocity integration over a chunk of w.Bodies
	phaseIsland               // one island's row assembly and solve
	phasePos                  // position integration over a chunk of w.Bodies
	phaseSync                 // geom pose sync over a chunk of w.Geoms
	phaseCloth                // one cloth object's forward step
	numPhases
)

// phaseSpan is the span recorded around each item of a phase.
var phaseSpan = [numPhases]span{
	phaseRefresh: spanRefreshChunk,
	phaseSweep:   spanSweepChunk,
	phaseNarrow:  spanNarrowChunk,
	phaseEdge:    spanEdgeChunk,
	phaseVel:     spanIntegChunk,
	phaseIsland:  spanIsland,
	phasePos:     spanIntegChunk,
	phaseSync:    spanSyncChunk,
	phaseCloth:   spanClothObj,
}

// runItem executes one work item on the given worker (0 = the calling
// thread), inside the phase's item span. It is the only way a worker
// body is ever entered. The switch — rather than a func value stored per
// dispatch — keeps the worker call graph static, so paraxlint follows it
// from pool.loop and from Step without per-worker annotations, and
// avoids the method values that would otherwise have to be bound once
// and kept in World fields (creating one allocates).
func (w *World) runItem(worker int, ph phase, item int) {
	lane := w.laneFor(worker)
	id := w.spans[phaseSpan[ph]]
	lane.Begin(id)
	sc := &w.scratch
	switch ph {
	case phaseRefresh:
		w.refreshChunk(sc.chunkRange(item))
	case phaseSweep:
		w.sweepChunk(sc.chunkRange(item))
	case phaseNarrow:
		w.narrowChunk(sc.chunkRange(item))
	case phaseEdge:
		w.edgeChunk(sc.chunkRange(item))
	case phaseVel:
		w.velChunk(sc.chunkRange(item))
	case phaseIsland:
		w.solveIsland(worker, item)
	case phasePos:
		w.posChunk(sc.chunkRange(item))
	case phaseSync:
		w.syncChunk(sc.chunkRange(item))
	case phaseCloth:
		w.stepCloth(item)
	default:
		panic("world: work item of an unknown phase")
	}
	lane.End(id)
}

// run executes one item of phase ph per index, returning when all have
// completed. The queued items go to the pool's shared cursor; the calling
// goroutine runs the main items and then claims queued ones alongside
// the workers, so it is busy for the whole phase. The split orders the
// work: queued items are started first, and main items are the ones not
// worth a claim each (islands under SmallIslandDOF) or that should not
// wait for a wake-up (chunk 0). At one thread there is no pool and
// everything runs inline.
func (w *World) run(ph phase, queued, main []int32) {
	p := w.pool
	if p == nil {
		for _, a := range queued {
			w.runItem(0, ph, int(a))
		}
	} else {
		p.start(w, ph, queued)
	}
	for _, a := range main {
		w.runItem(0, ph, int(a))
	}
	if p != nil {
		p.drain(0)
		p.finish()
	}
}

// runChunks partitions n elements into min(threads, n) equal contiguous
// chunks (the paper partitions object-pairs into equal sets per worker
// thread) and runs each as one item of phase ph, chunk 0 on the calling
// goroutine and the rest on the pool. The worker bodies receive the
// chunk index — not a worker id — so per-chunk result buffers merge
// deterministically whatever worker ran them. It returns the number of
// chunks, at least one.
func (w *World) runChunks(ph phase, n int) int {
	t := w.threads
	if t > n {
		t = n
	}
	if t < 1 {
		t = 1
	}
	sc := &w.scratch
	sc.chunkN = n
	sc.chunkSize = (n + t - 1) / t
	w.run(ph, sc.chunkIdx[1:t], sc.chunkIdx[:1])
	return t
}
