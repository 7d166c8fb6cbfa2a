// Package broadphase implements the first stage of collision detection:
// culling the O(n^2) space of geom pairs down to pairs whose bounding
// boxes overlap. Four types emit the same pair list: SweepAndPrune, which
// every world uses; IncrementalSAP and SpatialHash, which abl-broadphase
// compares with it; and BruteForce, the tests' O(n^2) oracle. The paper
// treats the broad phase as a serial phase; here only SweepAndPrune's
// order update and merge are, and its sweep runs as independent ranges
// that the world spreads over its threads, with a result identical to
// the serial pass's. Every implementation keeps all working storage
// (membership stamps, cell entry lists, dedup tables, sort buffers)
// across passes so that steady-state stepping does not allocate.
package broadphase

import (
	"math"
	"slices"

	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

// Pair is a candidate colliding pair of geom indices, with A < B.
type Pair struct {
	A, B int32
}

// Stats records the work done by one broad-phase pass; the architecture
// model converts these counts into instruction and memory streams.
type Stats struct {
	// Geoms considered (enabled geoms).
	Geoms int
	// AABBUpdates is the number of bounding boxes recomputed.
	AABBUpdates int
	// SortOps counts exchange/insert work in the sweep structures: array
	// exchanges in the sweep-and-prune insertion sort (zero when the
	// previous frame's order still holds) and cell inserts in the
	// spatial hash.
	SortOps int
	// OverlapTests counts the candidates the algorithm's structure
	// presents to the pair filter, whether or not the filter then needs
	// the boxes to reject them (two statics, one group). For
	// SweepAndPrune that is every (a, b) with b after a in the order and
	// b's interval starting at or before a's end on the sweep axis; for
	// IncrementalSAP every entry of the persistent axis-overlap set; for
	// SpatialHash every distinct pair sharing a cell; each of the three
	// adds one per (plane, non-static geom); for BruteForce it is every
	// pair of enabled geoms. kernels.CostModel charges PerOverlapTest
	// instructions per unit, so an implementation that skips filter work
	// still counts the candidate.
	OverlapTests int
	// PairsOut is the number of candidate pairs produced.
	PairsOut int
	// Rebuilds counts full-structure rebuilds by incremental algorithms
	// (coherence-collapse fallbacks); always zero for the full-sweep
	// implementations.
	Rebuilds int
}

// Interface is a broad-phase algorithm. Implementations keep persistent
// state between calls to exploit temporal coherence.
type Interface interface {
	// PairsPrerefreshed updates the spatial structure for the current
	// geom placements and appends all candidate pairs to dst, returning
	// it: each pair once, A < B, in ascending (A, B) order. The world
	// depends on that order — contacts inherit it from their pairs, and
	// warm starting matches them to last step's by one merge pass over
	// two lists in that order — so an implementation that emitted pairs
	// twice or unsorted would lose warm starts and write snapshots that
	// Restore rejects. The caller has already refreshed every enabled
	// geom's bounding box (World.Step's chunk-parallel refresh pass) and
	// accounts for that work itself: Stats.Geoms and Stats.AABBUpdates
	// are left zero.
	PairsPrerefreshed(geoms []*geom.Geom, dst []Pair) []Pair
	// Stats returns counters for the most recent PairsPrerefreshed call.
	Stats() Stats
}

// shouldPair applies the engine-level pair filter plus the AABB test.
func shouldPair(a, b *geom.Geom) bool {
	return geom.ShouldCollide(a, b) && a.Box.Overlaps(b.Box)
}

// SweepAndPrune is a sort-and-sweep broad phase. Each pass it picks the
// axis with the greatest spread of the (pre-refreshed) AABBs, sorts the
// interval endpoints along it (insertion sort over the mostly-sorted
// previous order, exploiting temporal coherence), and sweeps to emit
// overlapping pairs. Unbounded shapes (planes) are handled out-of-band
// and paired against every dynamic geom.
//
// Only order persists between passes. The sort and the sweep run over
// flat per-pass copies indexed by sorted position, not over the geoms:
// the sweep visits ~100 axis candidates per geom on a static-heavy
// scene, and nearly all of them are rejected on the interval or the
// static flag alone, which the copies answer without a pointer load.
//
// A pass is three calls: Prepare (serial), SweepRange over any partition
// of the start positions (the ranges only read the structure, so they
// may run concurrently), and Merge over the ranges' outputs.
// PairsPrerefreshed is the three with one range.
type SweepAndPrune struct {
	order []int32 // geom indices sorted by Box.Min along the sweep axis
	axis  int
	stats Stats
	// mark[id] == gen means geom id is already in order this pass
	// (generation-stamped membership, replacing a per-pass map).
	mark      []uint32
	gen       uint32
	unbounded []sweepRec // the planes; only id and group are set
	// Per-pass scratch, refilled by append so capacity survives the pass.
	lo  []float64  // lo[k] is Box.Min along the sweep axis of order[k]
	rec []sweepRec // rec[k] is what the pair filter reads of order[k]
	dyn []int32    // ascending sorted positions k of the non-static geoms
	// ordered is false when lo holds a NaN, which the sort leaves out of
	// order; ids is len(geoms), the bound of every geom id in the pass.
	ordered bool
	ids     int
	// Merge's scratch: the plane pairs, its input lists (the ranges'
	// buffers, then planes) and the sort.
	planes []Pair
	lists  [][]Pair
	sorter pairSort
	// PairsPrerefreshed's one range: its pair buffer and its test count.
	whole      [1][]Pair
	wholeTests [1]int
}

// sweepRec is the part of a geom the pair filter reads, copied out for
// one sweep; every geom in order is enabled, so that flag is not kept.
type sweepRec struct {
	box    m3.AABB
	id     int32
	group  int32
	static bool
}

// NewSweepAndPrune returns an empty sweep-and-prune structure.
func NewSweepAndPrune() *SweepAndPrune { return &SweepAndPrune{} }

// Stats implements Interface; for a split pass it covers Prepare through
// Merge.
func (s *SweepAndPrune) Stats() Stats { return s.stats }

// PairsPrerefreshed implements Interface: Prepare, one SweepRange over
// every start position, Merge.
func (s *SweepAndPrune) PairsPrerefreshed(geoms []*geom.Geom, dst []Pair) []Pair {
	n := s.Prepare(geoms)
	s.whole[0], s.wholeTests[0] = s.SweepRange(0, n, s.whole[0][:0])
	return s.Merge(s.whole[:], s.wholeTests[:], dst)
}

// Prepare is the serial first part of a pass over pre-refreshed geoms:
// it refreshes the persistent order, picks the sweep axis, re-sorts the
// order along it and fills the flat copies the sweep reads. It returns
// the number of start positions, the range SweepRange partitions.
func (s *SweepAndPrune) Prepare(geoms []*geom.Geom) int {
	s.stats = Stats{}
	s.ids = len(geoms)
	s.gen++
	for len(s.mark) < len(geoms) {
		s.mark = append(s.mark, 0)
	}
	if s.gen == 0 { // wrapped: stale stamps could collide, reset
		clear(s.mark)
		s.gen = 1
	}
	unbounded := s.unbounded[:0] // planes etc.
	// Refresh the index list.
	live := s.order[:0]
	for _, id := range s.order {
		if int(id) < len(geoms) && geoms[id].Enabled() && geoms[id].Shape.Kind() != geom.KindPlane {
			live = append(live, id)
			s.mark[id] = s.gen
		}
	}
	for _, g := range geoms {
		if !g.Enabled() {
			continue
		}
		if g.Shape.Kind() == geom.KindPlane {
			unbounded = append(unbounded, sweepRec{id: int32(g.ID), group: g.Group})
			continue
		}
		if s.mark[g.ID] != s.gen {
			live = append(live, int32(g.ID))
		}
	}
	s.order = live
	s.unbounded = unbounded

	// Choose sweep axis by spread of box centers.
	s.axis = bestAxis(geoms, s.order)

	// Insertion sort: nearly sorted from the previous frame.
	lo, ordered := s.lo[:0], true
	for _, id := range s.order {
		v := geoms[id].Box.Min.Comp(s.axis)
		lo = append(lo, v)
		ordered = ordered && !math.IsNaN(v)
	}
	s.lo, s.ordered = lo, ordered
	s.insertionSort()

	rec, dyn := s.rec[:0], s.dyn[:0]
	for k, id := range s.order {
		g := geoms[id]
		static := g.Flags.Has(geom.FlagStatic)
		rec = append(rec, sweepRec{box: g.Box, id: id, group: g.Group, static: static})
		if !static {
			dyn = append(dyn, int32(k))
		}
	}
	s.rec, s.dyn = rec, dyn
	return len(rec)
}

// SweepRange appends to dst the pairs whose sweep run starts at a sorted
// position in [from, to), and returns dst with the number of overlap
// tests those runs made. It only reads s, so between Prepare and Merge
// the ranges of a partition may run concurrently; their union is the
// whole sweep's, in some order that Merge canonicalises.
//
// The run of a is the positions after it up to the first whose interval
// starts past a's end, and every position in it is one overlap test.
// Without NaN keys the sort leaves lo non-decreasing, so the search may
// start where the previous run ended and step back; a NaN key compares
// false both ways, stays in the run and is walked over from the front. A
// static a can only pair with the dynamic geoms of its run, so it walks
// dyn, where d is the first entry past position i.
func (s *SweepAndPrune) SweepRange(from, to int, dst []Pair) ([]Pair, int) {
	rec, lo, dyn, axis, ordered := s.rec, s.lo, s.dyn, s.axis, s.ordered
	// d starts at the first entry of dyn at or past from: a binary search
	// written out, since a sort.Search closure could not run on a worker.
	d, hi := 0, len(dyn)
	for d < hi {
		if m := int(uint(d+hi) >> 1); int(dyn[m]) < from {
			d = m + 1
		} else {
			hi = m
		}
	}
	tests, end := 0, from+1
	for i := from; i < to; i++ {
		a := &rec[i]
		amax := a.box.Max.Comp(axis)
		if !ordered || end <= i {
			end = i + 1
		}
		for end > i+1 && lo[end-1] > amax {
			end--
		}
		for end < len(lo) && !(lo[end] > amax) {
			end++
		}
		tests += end - i - 1
		if a.static {
			for _, j := range dyn[d:] {
				if int(j) >= end {
					break
				}
				if b := &rec[j]; a.pairs(b) {
					dst = appendPair(dst, a.id, b.id)
				}
			}
		} else {
			d++ // dyn[d] was i
			for j := i + 1; j < end; j++ {
				if b := &rec[j]; a.pairs(b) {
					dst = appendPair(dst, a.id, b.id)
				}
			}
		}
	}
	return dst, tests
}

// Merge is the serial last part of a pass: it pairs the planes with
// every dynamic geom, totals the Stats from the ranges' test counts, and
// appends to dst the ranges' pairs (chunks, which partitioned the start
// positions, in any order) and the plane pairs in the canonical (A, B)
// order. It returns the extended slice.
func (s *SweepAndPrune) Merge(chunks [][]Pair, tests []int, dst []Pair) []Pair {
	planes := s.planes[:0]
	for pi := range s.unbounded {
		p := &s.unbounded[pi]
		s.stats.OverlapTests += len(s.dyn)
		for _, j := range s.dyn {
			if b := &s.rec[j]; p.group == 0 || p.group != b.group {
				planes = appendPair(planes, p.id, b.id)
			}
		}
	}
	s.planes = planes
	for _, t := range tests {
		s.stats.OverlapTests += t
	}
	lists := s.lists[:0]
	lists = append(lists, chunks...)
	lists = append(lists, planes)
	s.lists = lists
	base := len(dst)
	dst = s.sorter.sort(s.ids, lists, dst)
	s.stats.PairsOut = len(dst) - base
	return dst
}

// pairs is shouldPair for two geoms of one sweep, which are enabled and
// of which the caller knows that at most one is static.
func (a *sweepRec) pairs(b *sweepRec) bool {
	return (a.group == 0 || a.group != b.group) && a.box.Overlaps(b.box)
}

// insertionSort re-sorts order, and lo with it, by AABB minimum along
// the sweep axis. SortOps counts only actual element moves, so a frame
// whose order is unchanged from the previous one reports zero sort work
// (temporal coherence makes the serial phase cheap, and the counter must
// not inflate the Fig 2b/3a instruction and memory streams when no work
// happened).
func (s *SweepAndPrune) insertionSort() {
	order, lo := s.order, s.lo
	ops := 0
	for i := 1; i < len(order); i++ {
		v, kv := order[i], lo[i]
		j := i - 1
		for j >= 0 && lo[j] > kv {
			order[j+1], lo[j+1] = order[j], lo[j]
			j--
			ops++
		}
		order[j+1], lo[j+1] = v, kv
	}
	s.stats.SortOps = ops
}

func bestAxis(geoms []*geom.Geom, order []int32) int {
	if len(order) == 0 {
		return 0
	}
	var mean, m2 [3]float64
	n := 0.0
	for _, id := range order {
		c := geoms[id].Box.Center()
		n++
		for k := 0; k < 3; k++ {
			x := c.Comp(k)
			d := x - mean[k]
			mean[k] += d / n
			m2[k] += d * (x - mean[k])
		}
	}
	axis := 0
	for k := 1; k < 3; k++ {
		if m2[k] > m2[axis] {
			axis = k
		}
	}
	return axis
}

func appendPair(dst []Pair, a, b int32) []Pair {
	if a > b {
		a, b = b, a
	}
	return append(dst, Pair{A: a, B: b})
}

// SpatialHash is a uniform-grid broad phase: geoms are binned by their
// AABBs into grid cells keyed by a hash; pairs are emitted within each
// cell and deduplicated. Cell membership is kept as a flat (cellKey,
// geom) entry list sorted by key — equal-key runs are the buckets —
// instead of a map of slices, so the structure is rebuilt each pass
// without allocating.
type SpatialHash struct {
	entries []cellEntry
	seen    map[uint64]bool
	dynamic []int32
	unbound []int32
	stats   Stats
	sorter  pairSort
}

// cellEntry records one geom overlapping one grid cell.
type cellEntry struct {
	key uint64
	id  int32
}

// NewSpatialHash returns a spatial hash with automatic cell sizing.
func NewSpatialHash() *SpatialHash {
	return &SpatialHash{seen: make(map[uint64]bool)}
}

// Stats implements Interface.
func (h *SpatialHash) Stats() Stats { return h.stats }

func cellKey(x, y, z int32) uint64 {
	// Morton-ish mix of the three signed cell coordinates.
	const p1, p2, p3 = 73856093, 19349663, 83492791
	return uint64(uint32(x)*p1) ^ uint64(uint32(y)*p2)<<1 ^ uint64(uint32(z)*p3)<<2
}

// PairsPrerefreshed implements Interface.
func (h *SpatialHash) PairsPrerefreshed(geoms []*geom.Geom, dst []Pair) []Pair {
	h.stats = Stats{}
	base := len(dst)
	h.entries = h.entries[:0]
	clear(h.seen)

	unbounded := h.unbound[:0]
	dynamic := h.dynamic[:0]
	sum := 0.0
	cnt := 0
	for _, g := range geoms {
		if !g.Enabled() {
			continue
		}
		if g.Shape.Kind() == geom.KindPlane {
			unbounded = append(unbounded, int32(g.ID))
			continue
		}
		dynamic = append(dynamic, int32(g.ID))
		e := g.Box.Extent()
		sum += (e.X + e.Y + e.Z) / 3
		cnt++
	}
	h.unbound = unbounded
	h.dynamic = dynamic
	if cnt == 0 {
		return dst
	}
	// The grid pitch is twice the average geom extent.
	cell := 2*sum/float64(cnt) + m3.Eps

	for _, id := range dynamic {
		g := geoms[id]
		x0 := int32(fastFloor(g.Box.Min.X / cell))
		y0 := int32(fastFloor(g.Box.Min.Y / cell))
		z0 := int32(fastFloor(g.Box.Min.Z / cell))
		x1 := int32(fastFloor(g.Box.Max.X / cell))
		y1 := int32(fastFloor(g.Box.Max.Y / cell))
		z1 := int32(fastFloor(g.Box.Max.Z / cell))
		for z := z0; z <= z1; z++ {
			for y := y0; y <= y1; y++ {
				for x := x0; x <= x1; x++ {
					h.entries = append(h.entries, cellEntry{cellKey(x, y, z), id})
					h.stats.SortOps++ // hashing/insert work
				}
			}
		}
	}
	slices.SortFunc(h.entries, func(a, b cellEntry) int {
		switch {
		case a.key != b.key:
			if a.key < b.key {
				return -1
			}
			return 1
		case a.id != b.id:
			return int(a.id) - int(b.id)
		}
		return 0
	})

	// Equal-key runs of the sorted entry list are the cell buckets.
	for lo := 0; lo < len(h.entries); {
		hi := lo + 1
		for hi < len(h.entries) && h.entries[hi].key == h.entries[lo].key {
			hi++
		}
		bucket := h.entries[lo:hi]
		for i := 0; i < len(bucket); i++ {
			for j := i + 1; j < len(bucket); j++ {
				a, b := bucket[i].id, bucket[j].id
				if a == b {
					continue
				}
				x, y := a, b
				if x > y {
					x, y = y, x
				}
				pk := uint64(x)<<32 | uint64(uint32(y))
				if h.seen[pk] {
					continue
				}
				h.seen[pk] = true
				h.stats.OverlapTests++
				if shouldPair(geoms[a], geoms[b]) {
					dst = appendPair(dst, a, b)
					h.stats.PairsOut++
				}
			}
		}
		lo = hi
	}
	for _, pid := range unbounded {
		p := geoms[pid]
		for _, id := range dynamic {
			g := geoms[id]
			if g.Flags.Has(geom.FlagStatic) {
				continue
			}
			h.stats.OverlapTests++
			if geom.ShouldCollide(p, g) {
				dst = appendPair(dst, pid, id)
				h.stats.PairsOut++
			}
		}
	}
	return h.sorter.sortTail(len(geoms), dst, base)
}

// fastFloor truncates toward negative infinity. The != below is an
// exact-representation check (did int conversion lose anything), not a
// value comparison, so it is a legitimate exact float compare.
//
//paraxlint:tolerance
func fastFloor(x float64) int {
	i := int(x)
	if x < 0 && float64(i) != x {
		i--
	}
	return i
}

// BruteForce is the O(n^2) reference implementation used by tests to
// validate the real algorithms.
type BruteForce struct {
	stats  Stats
	live   []*geom.Geom
	sorter pairSort
}

// NewBruteForce returns the reference broad phase.
func NewBruteForce() *BruteForce { return &BruteForce{} }

// Stats implements Interface.
func (bf *BruteForce) Stats() Stats { return bf.stats }

// PairsPrerefreshed implements Interface.
func (bf *BruteForce) PairsPrerefreshed(geoms []*geom.Geom, dst []Pair) []Pair {
	bf.stats = Stats{}
	base := len(dst)
	live := bf.live[:0]
	for _, g := range geoms {
		if !g.Enabled() {
			continue
		}
		live = append(live, g)
	}
	bf.live = live
	for i := 0; i < len(live); i++ {
		for j := i + 1; j < len(live); j++ {
			a, b := live[i], live[j]
			// Plane-vs-plane is filtered by ShouldCollide (two statics).
			bf.stats.OverlapTests++
			if shouldPair(a, b) {
				dst = appendPair(dst, int32(a.ID), int32(b.ID))
				bf.stats.PairsOut++
			}
		}
	}
	return bf.sorter.sortTail(len(geoms), dst, base)
}
