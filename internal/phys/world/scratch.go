package world

import (
	"github.com/parallax-arch/parallax/internal/phys/arena"
	"github.com/parallax-arch/parallax/internal/phys/broadphase"
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

// warmEntry is one contact's solved impulses (normal + two friction),
// kept for the next step's warm start. A contact is identified across
// steps by its geom pair plus its ordinal within that pair's manifold.
// The merged contact list is strictly increasing in (pair, ord) — see
// processIslands — and so is every []warmEntry.
type warmEntry struct {
	pair   uint64
	ord    int32
	lambda [joint.RowsPerContact]float64
}

// before reports whether e sorts strictly before (pair, ord).
func (e *warmEntry) before(pair uint64, ord int32) bool {
	return e.pair < pair || e.pair == pair && e.ord < ord
}

// frameScratch is the World's reusable per-step arena. Everything the
// step loop needs that scales with the scene — per-chunk narrow-phase
// buffers, the merged contact list, island edges, per-island solver
// stats, joint-load accumulators, warm-start bookkeeping, and
// per-worker row buffers and solver workspaces — lives here as flat
// slices, no maps, and is re-sliced to length zero (or overwritten in
// place) each step, so a steady-state Step performs no heap allocation.
// Every buffer the step sizes grows through arena.Grow, the per-worker
// ones on the serial path (processIslands), never inside a worker. Event
// paths that fire rarely (detonations, RecordDetail profile copies) still
// allocate; see DESIGN.md "Scratch-arena memory model".
type frameScratch struct {
	// Narrow phase: one buffer set per chunk. Like the other per-thread
	// lists below it is as long as the thread count; beginStep empties every
	// entry, so the ones past this step's chunk count merge as nothing.
	narrow []narrowEvents
	// contacts is the merged, deterministic contact list.
	contacts []narrowphase.Contact

	// Island creation.
	edges   []island.Edge
	builder island.Builder
	islands []island.Island // aliases builder storage; valid for the step

	// Island processing.
	solverStats []solver.Stats
	// jointLoad accumulates constraint force per joint id. Islands touch
	// disjoint joints, so parallel island solves write disjoint entries.
	jointLoad []float64
	// items is the step's island work list: the paired queued islands,
	// then the paired ones the main thread runs (processIslands). An item
	// is an island index; partner, per island, names the island solved
	// with it in the same item (-1 = none).
	items   []int32
	partner []int32
	// Per-worker storage, indexed by pool worker id (0 = main thread),
	// sized by processIslands for the step's largest work item.
	rows []([]joint.Row)
	ws   []solver.Workspace

	// rowBase is the row base of each solved contact (-1 = not solved
	// this step). warmNext, when warm starting, has one entry per contact:
	// processIslands seeds it with last step's impulses, solveIsland
	// overwrites those with this step's, and the solved contacts' entries
	// become World.warm (whose old storage is the next warmNext).
	rowBase  []int32
	warmNext []warmEntry

	// Cloth phase.
	clothStats []cloth.Stats

	// The partition runChunks set for the chunked phase in flight: chunkN
	// elements in chunks of chunkSize.
	chunkSize int
	chunkN    int

	// Chunk-parallel phase merge buffers, indexed by chunk (count <=
	// threads); merged serially in chunk order so results are
	// deterministic whatever worker ran each chunk. counts holds the one
	// number a chunk may report (geoms refreshed, overlap tests, bodies
	// integrated), which runChunks sums.
	counts     []int
	edgeChunks [][]island.Edge // edgeChunk: per-chunk island edge lists

	// The broad phase when it is a SweepAndPrune, whose ranges sweepChunk
	// runs, and sweepChunk's per-chunk pair buffers, handed to its Merge.
	sap   *broadphase.SweepAndPrune
	sweep [][]broadphase.Pair
}

// beginStep resizes the arena for the current scene, reusing all prior
// capacity.
func (sc *frameScratch) beginStep(threads, numJoints int) {
	threads = max(threads, 1)
	sc.narrow = arena.Grow(sc.narrow, threads)
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
	sc.edges = sc.edges[:0]

	sc.jointLoad = arena.Grow(sc.jointLoad, numJoints)
	clear(sc.jointLoad)

	sc.counts = arena.Grow(sc.counts, threads)
	sc.edgeChunks = arena.Grow(sc.edgeChunks, threads)
	for i := range sc.edgeChunks {
		sc.edgeChunks[i] = sc.edgeChunks[i][:0]
	}
	sc.sweep = arena.Grow(sc.sweep, threads)

	sc.rows = arena.Grow(sc.rows, threads)
	sc.ws = arena.Grow(sc.ws, threads)
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
	sc.solverStats = arena.Grow(sc.solverStats, numIslands)
	clear(sc.solverStats)
	sc.partner = arena.Grow(sc.partner, numIslands)
	for i := range sc.partner {
		sc.partner[i] = -1
	}
	sc.rowBase = arena.Grow(sc.rowBase, numContacts)
	for i := range sc.rowBase {
		sc.rowBase[i] = -1
	}
	if warm {
		sc.warmNext = arena.Grow(sc.warmNext, numContacts)
	}
	sc.items = sc.items[:0]
}
