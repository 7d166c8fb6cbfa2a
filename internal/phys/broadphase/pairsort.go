package broadphase

import "slices"

// pairSort puts pairs in the canonical order, ascending (A, B), that
// Interface promises. It is a radix sort whose digits are geom ids: one
// stable counting pass by B, then one by A, so pairs of equal A keep the
// B order of the first pass. Ids are below len(geoms), so a sort costs
// O(pairs + geoms) and calls no comparator. Its buffers are kept across
// sorts: steady-state stepping does not allocate.
type pairSort struct {
	tmp      []Pair    // the pairs in B order, between the two passes
	byA, byB []int32   // per geom id: its pair count, then its next slot
	one      [1][]Pair // sortTail's one input list
}

// sort appends the pairs of lists to dst in (A, B) order and returns the
// extended slice. Every id in the lists is below ids. dst may share
// storage with the lists: they are read in full before the first write
// to dst.
func (ps *pairSort) sort(ids int, lists [][]Pair, dst []Pair) []Pair {
	byA, byB := counts(ps.byA, ids), counts(ps.byB, ids)
	n := 0
	for _, l := range lists {
		n += len(l)
		for _, p := range l {
			byA[p.A]++
			byB[p.B]++
		}
	}
	firstSlots(byA)
	firstSlots(byB)
	// tmp takes all of dst's spare capacity, so the headroom a caller
	// sizes dst with (World.prevPairs) covers tmp too.
	base := len(dst)
	dst = slices.Grow(dst, n)
	tmp := slices.Grow(ps.tmp[:0], cap(dst)-base)[:n]
	for _, l := range lists {
		for _, p := range l {
			tmp[byB[p.B]] = p
			byB[p.B]++
		}
	}
	dst = dst[:base+n]
	out := dst[base:]
	for _, p := range tmp {
		out[byA[p.A]] = p
		byA[p.A]++
	}
	ps.tmp, ps.byA, ps.byB = tmp, byA, byB
	return dst
}

// sortTail sorts dst[base:] in place and returns dst.
func (ps *pairSort) sortTail(ids int, dst []Pair, base int) []Pair {
	ps.one[0] = dst[base:]
	dst = ps.sort(ids, ps.one[:], dst[:base])
	ps.one[0] = nil
	return dst
}

// counts returns c re-sliced to ids zeroed entries.
func counts(c []int32, ids int) []int32 {
	c = slices.Grow(c[:0], ids)[:ids]
	clear(c)
	return c
}

// firstSlots turns per-id counts into the slot of each id's first pair.
func firstSlots(c []int32) {
	slot := int32(0)
	for i, k := range c {
		c[i] = slot
		slot += k
	}
}
