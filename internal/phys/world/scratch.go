package world

import (
	"github.com/parallax-arch/parallax/internal/phys/cloth"
	"github.com/parallax-arch/parallax/internal/phys/island"
	"github.com/parallax-arch/parallax/internal/phys/joint"
	"github.com/parallax-arch/parallax/internal/phys/narrowphase"
	"github.com/parallax-arch/parallax/internal/phys/solver"
)

// narrowEvents is one narrow-phase chunk's output: contacts plus the
// special-contact events (explosions, blast hits, cloth contact lists).
// Chunks are partitioned deterministically over the pair list, so
// merging the chunk buffers in index order reproduces the serial result
// bit for bit whatever the thread count.
type narrowEvents struct {
	contacts   []narrowphase.Contact
	stats      narrowphase.Stats
	explosions []int32
	blastHits  [][2]int32 // blast geom, other geom
	blastCloth [][2]int32 // blast geom, cloth index
	clothHits  [][2]int32 // cloth index, other geom
	// scr holds the chunk's collision scratch (mesh-query and EPA
	// buffers). It persists across steps — beginStep resets the event
	// slices but leaves it alone — so mesh/hull pairs stay allocation-free.
	scr narrowphase.Scratch
}

// warmKey identifies a contact across steps for warm starting: the geom
// pair plus the contact's ordinal within that pair's manifold.
type warmKey struct {
	pair uint64
	ord  int32
}

// frameScratch is the World's reusable per-step arena. Everything the
// step loop needs that scales with the scene — per-chunk narrow-phase
// buffers, the merged contact list, island edges, per-island solver
// stats, joint-load accumulators, warm-start bookkeeping, and
// per-worker row buffers and solver workspaces — lives here and is
// re-sliced to length zero (or overwritten in place) each step, so a
// steady-state Step performs no heap allocation. Event paths that fire
// rarely (detonations, RecordDetail profile copies) still allocate; see
// DESIGN.md "Scratch-arena memory model".
type frameScratch struct {
	// Narrow phase: one buffer set per chunk (chunk count = Threads).
	narrow []narrowEvents
	// contacts is the merged, deterministic contact list.
	contacts []narrowphase.Contact
	// seenExpl dedups explosion events across chunks.
	seenExpl map[int32]bool

	// Island creation.
	edges   []island.Edge
	builder island.Builder
	islands []island.Island // aliases builder storage; valid for the step

	// Island processing.
	solverStats []solver.Stats
	// jointLoad accumulates constraint force per joint id. Islands touch
	// disjoint joints, so parallel island solves write disjoint entries.
	jointLoad []float64
	// queued and main partition island indices (and later cloth indices)
	// between the work queue and the main thread.
	queued, main []int32
	// Per-worker storage, indexed by pool worker id (0 = main thread).
	rows []([]joint.Row)
	ws   []solver.Workspace

	// Warm starting: per-contact keys, manifold ordinals, the row base of
	// each solved contact (-1 = not solved this step), and the per-row
	// impulses gathered from island solves.
	contactKey []uint64
	contactOrd []int32
	ordCount   map[uint64]int32
	rowBase    []int32
	warmLambda []float64

	// Cloth phase.
	clothStats []cloth.Stats
	clothIdx   []int32

	// The partition runChunks set for the chunked phase in flight: chunkN
	// elements in chunks of chunkSize. chunkIdx is the identity list
	// 0..threads-1 its chunk items are sliced from.
	chunkSize int
	chunkN    int
	chunkIdx  []int32

	// Chunk-parallel phase merge buffers, indexed by chunk (count <=
	// threads); merged serially in chunk order so results are
	// deterministic whatever worker ran each chunk.
	refresh    [][2]int        // refreshChunk: (geoms seen, AABBs updated)
	edgeChunks [][]island.Edge // edgeChunk: per-chunk island edge lists
	integ      []int           // posChunk: bodies integrated per chunk
}

// beginStep resizes the arena for the current scene, reusing all prior
// capacity. edgeHint pre-sizes the island edge list from the previous
// step's count so the first steps after a snapshot Restore don't regrow
// it incrementally.
func (sc *frameScratch) beginStep(threads, numJoints, edgeHint int) {
	if threads < 1 {
		threads = 1
	}
	if cap(sc.narrow) < threads {
		//paraxlint:allow(alloc) capacity growth, amortized to zero in steady state
		sc.narrow = append(sc.narrow[:cap(sc.narrow)], make([]narrowEvents, threads-cap(sc.narrow))...)
	}
	sc.narrow = sc.narrow[:threads]
	for i := range sc.narrow {
		e := &sc.narrow[i]
		e.contacts = e.contacts[:0]
		e.stats = narrowphase.Stats{}
		e.explosions = e.explosions[:0]
		e.blastHits = e.blastHits[:0]
		e.blastCloth = e.blastCloth[:0]
		e.clothHits = e.clothHits[:0]
	}
	sc.contacts = sc.contacts[:0]
	if sc.seenExpl == nil {
		sc.seenExpl = make(map[int32]bool) //paraxlint:allow(alloc) lazy one-time map
	}
	clear(sc.seenExpl)
	sc.edges = sc.edges[:0]
	if cap(sc.edges) < edgeHint {
		sc.edges = make([]island.Edge, 0, edgeHint) //paraxlint:allow(alloc) pre-sized from the previous step's count
	}

	sc.jointLoad = grow(sc.jointLoad, numJoints)
	clear(sc.jointLoad)

	sc.refresh = grow(sc.refresh, threads)
	clear(sc.refresh)
	if cap(sc.edgeChunks) < threads {
		//paraxlint:allow(alloc) capacity growth, amortized to zero in steady state
		sc.edgeChunks = append(sc.edgeChunks[:cap(sc.edgeChunks)], make([][]island.Edge, threads-cap(sc.edgeChunks))...)
	}
	sc.edgeChunks = sc.edgeChunks[:threads]
	for i := range sc.edgeChunks {
		sc.edgeChunks[i] = sc.edgeChunks[i][:0]
	}
	sc.integ = grow(sc.integ, threads)
	clear(sc.integ)
	for len(sc.chunkIdx) < threads {
		sc.chunkIdx = append(sc.chunkIdx, int32(len(sc.chunkIdx)))
	}

	if cap(sc.rows) < threads {
		//paraxlint:allow(alloc) capacity growth, amortized to zero in steady state
		sc.rows = append(sc.rows[:cap(sc.rows)], make([][]joint.Row, threads-cap(sc.rows))...)
		//paraxlint:allow(alloc) capacity growth, amortized to zero in steady state
		sc.ws = append(sc.ws[:cap(sc.ws)], make([]solver.Workspace, threads-cap(sc.ws))...)
	}
	sc.rows = sc.rows[:threads]
	sc.ws = sc.ws[:threads]
}

// chunkRange returns chunk's element range [lo, hi) under the partition
// runChunks set. The chunk index is passed through so the result spreads
// straight into a chunk worker's (chunk, lo, hi) parameters.
func (sc *frameScratch) chunkRange(chunk int) (int, int, int) {
	lo := chunk * sc.chunkSize
	hi := lo + sc.chunkSize
	if lo > sc.chunkN {
		lo = sc.chunkN
	}
	if hi > sc.chunkN {
		hi = sc.chunkN
	}
	return chunk, lo, hi
}

// beginIslands sizes the per-island and per-contact working sets.
func (sc *frameScratch) beginIslands(numIslands, numContacts int, warm bool) {
	sc.solverStats = grow(sc.solverStats, numIslands)
	clear(sc.solverStats)
	sc.rowBase = grow(sc.rowBase, numContacts)
	for i := range sc.rowBase {
		sc.rowBase[i] = -1
	}
	if warm {
		sc.contactKey = grow(sc.contactKey, numContacts)
		sc.contactOrd = grow(sc.contactOrd, numContacts)
		sc.warmLambda = grow(sc.warmLambda, numContacts*joint.RowsPerContact)
		clear(sc.warmLambda)
		if sc.ordCount == nil {
			sc.ordCount = make(map[uint64]int32) //paraxlint:allow(alloc) lazy one-time map
		}
		clear(sc.ordCount)
	}
	sc.queued = sc.queued[:0]
	sc.main = sc.main[:0]
}

// grow returns s re-sliced to length n, reallocating only when its
// capacity is too small. Contents are unspecified: callers overwrite or
// clear every element.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n) //paraxlint:allow(alloc) capacity growth, amortized
	}
	return s[:n]
}
