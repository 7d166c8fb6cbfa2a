package broadphase

import (
	"slices"

	"github.com/parallax-arch/parallax/internal/phys/geom"
)

// IncrementalSAP is a Bullet/Box2D-style incremental sweep-and-prune: it
// keeps the interval endpoints (min and max per geom) of the sweep axis
// in a persistently sorted array and a persistent set of axis-overlapping
// pairs, updated only by the endpoint swaps the per-pass insertion sort
// performs. A coherent frame therefore costs O(endpoints + swaps + set)
// instead of re-sweeping every overlap run, which is what makes the
// broad phase cheap enough to leave on the serial critical path.
//
// Correctness hinges on a strict total order over endpoints —
// (value, side, id) with a geom's min ordering before any max at equal
// value — so that touching intervals count as overlapping, exactly
// matching SweepAndPrune's closed-interval sweep (`b.min <= a.max`).
// Under that order, an adjacent swap that moves a min left past a max
// always opens an axis overlap and a max moving left past a min always
// closes one; same-geom crossings cannot occur because a min orders
// strictly before its own max.
//
// When coherence collapses (mass detonation, teleports, a sweep-axis
// change), the insertion sort would degrade toward O(n^2) swaps; the
// pass detects this deterministically — the swap count crossing a fixed
// budget — aborts, and falls back to a full O(n log n) re-sort plus a
// from-scratch sweep that rebuilds the pair set. Stats.Rebuilds counts
// these fallbacks.
//
// Pairs are emitted by filtering the persistent set through the same
// shouldPair test the full sweep uses and then canonically sorting, so
// the output is byte-identical to SweepAndPrune's for the same scene.
type IncrementalSAP struct {
	// eps is the persistently sorted endpoint array (2 per live geom).
	eps []endpoint
	// set holds the axis-overlapping candidate pairs, keyed A<B packed
	// into a uint64. Maintained across passes by endpoint swaps.
	set  map[uint64]bool
	axis int
	// fullNext forces a rebuild on the next pass (first pass, axis change).
	fullNext bool
	stats    Stats

	// mark[id] == gen: geom id is live (enabled, non-plane) this pass.
	// gone[id] == gen: geom id left the structure this pass.
	mark, gone []uint32
	gen        uint32
	// has[id]: geom id currently contributes endpoints to eps.
	has []bool

	members   []int32 // live geom ids, rebuilt each pass (plane pairing, axis choice)
	unbounded []int32 // planes, paired out-of-band like SweepAndPrune
	active    []int32 // rebuild-sweep scratch
	sorter    pairSort
}

// endpoint is one interval bound on the sweep axis. side 0 is the
// interval minimum, 1 the maximum; val caches the bound's coordinate for
// the current pass.
type endpoint struct {
	val  float64
	id   int32
	side int32
}

// NewIncrementalSAP returns an empty incremental sweep-and-prune
// structure. The first pass performs a full rebuild.
func NewIncrementalSAP() *IncrementalSAP {
	return &IncrementalSAP{set: make(map[uint64]bool), fullNext: true}
}

// Stats implements Interface.
func (s *IncrementalSAP) Stats() Stats { return s.stats }

// PairsPrerefreshed implements Interface.
func (s *IncrementalSAP) PairsPrerefreshed(geoms []*geom.Geom, dst []Pair) []Pair {
	s.stats = Stats{}
	base := len(dst)
	s.gen++
	for len(s.mark) < len(geoms) {
		s.mark = append(s.mark, 0)
		s.gone = append(s.gone, 0)
		s.has = append(s.has, false)
	}
	if s.gen == 0 { // wrapped: stale stamps could collide, reset
		clear(s.mark)
		clear(s.gone)
		s.gen = 1
	}

	unbounded := s.unbounded[:0]
	for _, g := range geoms {
		if !g.Enabled() {
			continue
		}
		if g.Shape.Kind() == geom.KindPlane {
			unbounded = append(unbounded, int32(g.ID))
			continue
		}
		s.mark[g.ID] = s.gen
	}
	s.unbounded = unbounded

	// Departures (disabled, freed, reshaped to a plane): compact their
	// endpoints out — relative order is preserved, so no overlap relation
	// between survivors changes — and purge their pairs from the set.
	removed := false
	live := s.eps[:0]
	for _, ep := range s.eps {
		if int(ep.id) < len(s.mark) && s.mark[ep.id] == s.gen {
			live = append(live, ep)
		} else {
			s.gone[ep.id] = s.gen
			s.has[ep.id] = false
			removed = true
		}
	}
	s.eps = live
	if removed {
		for k := range s.set {
			if s.gone[uint32(k>>32)] == s.gen || s.gone[uint32(k)] == s.gen {
				delete(s.set, k)
			}
		}
	}

	// Arrivals append at the array's end: positionally overlap-free,
	// matching their (empty) membership in the set until the sort moves
	// them into place and opens their overlaps swap by swap.
	for _, g := range geoms {
		if s.mark[g.ID] == s.gen && !s.has[g.ID] {
			s.eps = append(s.eps,
				endpoint{id: int32(g.ID), side: 0},
				endpoint{id: int32(g.ID), side: 1})
			s.has[g.ID] = true
		}
	}

	members := s.members[:0]
	for _, ep := range s.eps {
		if ep.side == 0 {
			members = append(members, ep.id)
		}
	}
	s.members = members

	axis := bestAxis(geoms, members)
	if axis != s.axis {
		// Every cached endpoint value belongs to the old axis; the sorted
		// order is meaningless on the new one.
		s.axis = axis
		s.fullNext = true
	}
	for i := range s.eps {
		ep := &s.eps[i]
		if ep.side == 0 {
			ep.val = geoms[ep.id].Box.Min.Comp(axis)
		} else {
			ep.val = geoms[ep.id].Box.Max.Comp(axis)
		}
	}

	if s.fullNext {
		s.fullNext = false
		s.rebuild()
	} else if !s.sortIncremental() {
		s.rebuild()
	}

	// Emit: filter the persistent axis-overlap set through the same 3D
	// test the full sweep applies. Iteration order is irrelevant — the
	// pairs are canonically sorted below, making the output
	// byte-identical to SweepAndPrune's.
	for k := range s.set {
		a, b := int32(k>>32), int32(uint32(k))
		s.stats.OverlapTests++
		if shouldPair(geoms[a], geoms[b]) {
			dst = append(dst, Pair{A: a, B: b})
			s.stats.PairsOut++
		}
	}
	for _, pid := range s.unbounded {
		p := geoms[pid]
		for _, id := range s.members {
			g := geoms[id]
			if g.Flags.Has(geom.FlagStatic) {
				continue
			}
			s.stats.OverlapTests++
			if geom.ShouldCollide(p, g) {
				dst = appendPair(dst, pid, id)
				s.stats.PairsOut++
			}
		}
	}
	return s.sorter.sortTail(len(geoms), dst, base)
}

// sortIncremental insertion-sorts the endpoint array, maintaining the
// pair set on every adjacent swap, and reports whether it completed
// within the swap budget. On a false return the array is still a valid
// permutation (the in-flight element is always placed before aborting)
// but the set is stale; the caller must fall back to rebuild.
func (s *IncrementalSAP) sortIncremental() bool {
	eps := s.eps
	// The budget that declares coherence collapsed: a settled scene does
	// a handful of swaps, a blast does O(n^2). The fixed form keeps the
	// fallback decision deterministic across runs and thread counts.
	budget := 4*len(eps) + 64
	for i := 1; i < len(eps); i++ {
		v := eps[i]
		j := i - 1
		for j >= 0 && epAfter(&eps[j], &v) {
			p := eps[j]
			// v moves one slot left past p: a min passing a max opens an
			// axis overlap, a max passing a min closes one. Same-geom
			// crossings cannot occur (a min orders strictly before its
			// own max), so no id check is needed.
			if v.side == 0 && p.side == 1 {
				s.set[pairKeyOf(v.id, p.id)] = true
			} else if v.side == 1 && p.side == 0 {
				delete(s.set, pairKeyOf(v.id, p.id))
			}
			eps[j+1] = p
			j--
			s.stats.SortOps++
		}
		eps[j+1] = v
		if s.stats.SortOps > budget {
			return false
		}
	}
	return true
}

// rebuild fully re-sorts the endpoints and rebuilds the pair set with a
// single sweep over the sorted array — the O(n log n + overlaps)
// fallback for incoherent frames, and the initialization path.
func (s *IncrementalSAP) rebuild() {
	slices.SortFunc(s.eps, cmpEndpoint)
	clear(s.set)
	active := s.active[:0]
	for _, ep := range s.eps {
		if ep.side == 0 {
			// Every interval still open at this min overlaps it (its max
			// endpoint lies further right, and the total order makes
			// touching intervals overlap, like the closed-interval sweep).
			for _, a := range active {
				s.set[pairKeyOf(a, ep.id)] = true
			}
			active = append(active, ep.id)
		} else {
			for i, a := range active {
				if a == ep.id {
					active[i] = active[len(active)-1]
					active = active[:len(active)-1]
					break
				}
			}
		}
	}
	s.active = active[:0]
	s.stats.SortOps += len(s.eps) // nominal re-sort cost, deterministic
	s.stats.Rebuilds++
}

// epAfter reports whether p orders strictly after v in the endpoint
// total order (value, then side with min before max, then id). Only
// strict < comparisons are used, so equal values fall through to the
// tie-break fields.
func epAfter(p, v *endpoint) bool {
	if v.val < p.val {
		return true
	}
	if p.val < v.val {
		return false
	}
	if p.side != v.side {
		return p.side > v.side
	}
	return p.id > v.id
}

// cmpEndpoint is epAfter as a three-way comparison for slices.SortFunc.
func cmpEndpoint(a, b endpoint) int {
	if a.val < b.val {
		return -1
	}
	if b.val < a.val {
		return 1
	}
	if a.side != b.side {
		return int(a.side) - int(b.side)
	}
	return int(a.id) - int(b.id)
}

// pairKeyOf packs an unordered geom-id pair into the canonical A<B key.
func pairKeyOf(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}
