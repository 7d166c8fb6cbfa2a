package broadphase

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

// TestSweepRangePartitionsMatchWhole runs every frame twice on one
// history of geoms: once through PairsPrerefreshed, and once as Prepare,
// SweepRange over a random partition of the start positions run in a
// random order, and Merge of those ranges, in another random order, with
// their summed test counts. The
// pair list and every Stats field must be equal, and so must the
// persistent order. Both share Merge, so the split pass is also held to
// referenceSweep, which shares none of it. Partitions have empty and one-wide ranges and cuts
// on static/dynamic boundaries; the frames have tied keys, NaN keys,
// enable/disable churn (so the position count moves both ways) and
// growth. The scenes include planes only and no geoms at all.
//
// Mutants this went red on (each applied alone): the binary search for
// d off by one (`<=` for `<`: a range starting on a dynamic position
// skips it); end carried across a cut (kept on the struct from the last
// SweepRange: index out of range once the position count shrinks); the
// two counting passes in A-then-B order; the plane pairs appended to the
// sort's input twice (red against referenceSweep only: the whole pass
// merges them twice too). Summing the ranges' tests is the caller's job
// (World.runChunks); a sum of the first range only is caught by the
// world's thread-count determinism tests.
func TestSweepRangePartitionsMatchWhole(t *testing.T) {
	for _, sc := range []struct {
		name  string
		build func(r *rand.Rand) []*geom.Geom
		grow  bool // add a dynamic geom every eighth frame
	}{
		{"mixed", splitScene, true},
		{"cluster", func(r *rand.Rand) []*geom.Geom {
			// Dynamic spheres piled on one spot: every run is long and
			// every cut falls inside one.
			var gs []*geom.Geom
			for i := 0; i < 40; i++ {
				gs = append(gs, &geom.Geom{ID: i, Shape: geom.Sphere{R: 0.5}, Rot: m3.Ident, Body: i,
					Pos: m3.V(r.Float64(), r.Float64()*0.3, r.Float64()*0.3)})
			}
			return gs
		}, false},
		{"planes only", func(*rand.Rand) []*geom.Geom {
			return []*geom.Geom{
				{ID: 0, Shape: geom.Plane{Normal: m3.V(0, 1, 0)}, Rot: m3.Ident, Body: -1, Flags: geom.FlagStatic},
				{ID: 1, Shape: geom.Plane{Normal: m3.V(1, 0, 0)}, Rot: m3.Ident, Body: -1},
			}
		}, false},
		{"no geoms", func(*rand.Rand) []*geom.Geom { return nil }, false},
	} {
		t.Run(sc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(41))
			gs := sc.build(r)
			whole, split, ref := NewSweepAndPrune(), NewSweepAndPrune(), &referenceSweep{}
			var want, got, oracle []Pair
			var chunks [][]Pair
			seen := map[string]bool{}
			for frame := 0; frame < 60; frame++ {
				gs = moveSplitScene(r, gs, sc.grow && frame%8 == 7)
				nan, keep := -1, 0.0
				if len(gs) > 0 && frame%20 >= 17 {
					nan = r.Intn(len(gs))
					keep, gs[nan].Pos.X = gs[nan].Pos.X, math.NaN()
				}
				refreshBoxes(gs)
				want = whole.PairsPrerefreshed(gs, want[:0])
				oracle = ref.PairsPrerefreshed(gs, oracle[:0])

				n := split.Prepare(gs)
				ranges := randomPartition(r, split, n)
				perm := r.Perm(len(ranges))
				chunks = slices.Grow(chunks[:0], len(ranges))[:len(ranges)]
				tests := 0
				for _, k := range perm { // ranges run in any order
					var n int
					chunks[k], n = split.SweepRange(ranges[k][0], ranges[k][1], chunks[k][:0])
					tests += n
				}
				r.Shuffle(len(ranges), func(i, j int) { // and merge in any order
					chunks[i], chunks[j] = chunks[j], chunks[i]
				})
				got = split.Merge(chunks, tests, got[:0])
				if nan >= 0 {
					gs[nan].Pos.X = keep
				}

				if !pairsEqual(got, want) {
					t.Fatalf("frame %d, ranges %v: merged %d pairs, whole pass %d", frame, ranges, len(got), len(want))
				}
				if split.Stats() != whole.Stats() {
					t.Fatalf("frame %d, ranges %v: stats %+v, whole pass %+v", frame, ranges, split.Stats(), whole.Stats())
				}
				if !pairsEqual(got, oracle) || split.Stats() != ref.Stats() {
					t.Fatalf("frame %d, ranges %v: %d pairs and stats %+v, reference sweep %d and %+v",
						frame, ranges, len(got), split.Stats(), len(oracle), ref.Stats())
				}
				if !slices.Equal(split.SaveOrder(nil), whole.SaveOrder(nil)) {
					t.Fatalf("frame %d: persistent orders differ", frame)
				}
				noteShapes(seen, split, ranges, len(want))
			}
			if sc.name == "mixed" {
				for _, what := range []string{"empty range", "one-wide range", "cut at static/dynamic", "NaN key", "several ranges with pairs"} {
					if !seen[what] {
						t.Errorf("60 frames never produced a %s (saw %v)", what, seen)
					}
				}
			}
		})
	}
}

// splitScene is a static-majority scene with collision groups, three
// planes (one grouped, one not static), a row of geoms whose keys tie on
// every axis, and a static and a dynamic geom of one group overlapping.
func splitScene(r *rand.Rand) []*geom.Geom {
	var gs []*geom.Geom
	add := func(s geom.Shape, pos m3.Vec, static bool, group int32) {
		g := &geom.Geom{ID: len(gs), Shape: s, Pos: pos, Rot: m3.Ident, Body: len(gs), Group: group}
		if static {
			g.Body, g.Flags = -1, geom.FlagStatic
		}
		gs = append(gs, g)
	}
	add(geom.Plane{Normal: m3.V(0, 1, 0)}, m3.Vec{}, true, 0)
	add(geom.Plane{Normal: m3.V(1, 0, 0), Offset: -1}, m3.Vec{}, true, 3)
	add(geom.Plane{Normal: m3.V(0, 0, 1), Offset: -1}, m3.Vec{}, false, 0)
	for i := 0; i < 60; i++ {
		add(geom.Box{Half: m3.V(0.3+r.Float64(), 0.3+r.Float64(), 0.3+r.Float64())},
			m3.V(r.Float64()*20, r.Float64()*4, r.Float64()*6), true, int32(r.Intn(4)))
	}
	for i := 0; i < 20; i++ {
		add(geom.Sphere{R: 0.3 + r.Float64()*0.6}, m3.V(r.Float64()*20, r.Float64()*4, r.Float64()*6), false, int32(r.Intn(4)))
	}
	for i := 0; i < 6; i++ { // tied keys, alternately static and dynamic
		add(geom.Box{Half: m3.V(0.5, 0.5, 0.5)}, m3.V(8, 2, 3), i%2 == 0, 0)
	}
	add(geom.Box{Half: m3.V(1, 1, 1)}, m3.V(12, 2, 3), true, 9)
	add(geom.Sphere{R: 1}, m3.V(12.5, 2, 3), false, 9)
	return gs
}

// moveSplitScene advances one frame: dynamic geoms random-walk (the
// dynamic half of the tied row moves as one, so its keys stay tied),
// about one geom in twenty toggles enabled, and with grow a dynamic geom
// is added.
func moveSplitScene(r *rand.Rand, gs []*geom.Geom, grow bool) []*geom.Geom {
	step := m3.V(r.Float64()-0.5, r.Float64()-0.5, r.Float64()-0.5)
	for _, g := range gs {
		if _, plane := g.Shape.(geom.Plane); plane {
			continue
		}
		if !g.Flags.Has(geom.FlagStatic) {
			if b, ok := g.Shape.(geom.Box); ok && b.Half == m3.V(0.5, 0.5, 0.5) {
				g.Pos = g.Pos.Add(step)
			} else {
				g.Pos = g.Pos.Add(m3.V(r.Float64()-0.5, r.Float64()-0.5, r.Float64()-0.5))
			}
		}
		if r.Float64() < 0.05 {
			g.Flags ^= geom.FlagDisabled
		}
	}
	if grow {
		gs = append(gs, &geom.Geom{ID: len(gs), Shape: geom.Sphere{R: 0.5}, Rot: m3.Ident, Body: len(gs),
			Pos: m3.V(r.Float64()*20, r.Float64()*4, r.Float64()*6)})
	}
	return gs
}

// randomPartition cuts [0, n) into ranges at random positions, at
// duplicated positions (empty ranges), at adjacent ones (one-wide
// ranges) and where the sorted order passes between a static and a
// dynamic geom.
func randomPartition(r *rand.Rand, s *SweepAndPrune, n int) [][2]int {
	cuts := []int{0, n}
	for k := r.Intn(5); k > 0; k-- {
		c := r.Intn(n + 1)
		cuts = append(cuts, c)
		switch r.Intn(3) {
		case 0:
			cuts = append(cuts, c) // an empty range
		case 1:
			cuts = append(cuts, min(c+1, n)) // a one-wide range
		}
	}
	for i := 1; i < n; i++ {
		if s.rec[i-1].static != s.rec[i].static && r.Intn(8) == 0 {
			cuts = append(cuts, i)
		}
	}
	slices.Sort(cuts)
	var ranges [][2]int
	for i := 1; i < len(cuts); i++ {
		ranges = append(ranges, [2]int{cuts[i-1], cuts[i]})
	}
	return ranges
}

// noteShapes records which partition shapes a frame exercised, so the
// test can check its own coverage.
func noteShapes(seen map[string]bool, s *SweepAndPrune, ranges [][2]int, pairs int) {
	if !s.ordered {
		seen["NaN key"] = true
	}
	if len(ranges) > 2 && pairs > 0 {
		seen["several ranges with pairs"] = true
	}
	for _, rg := range ranges {
		switch rg[1] - rg[0] {
		case 0:
			seen["empty range"] = true
		case 1:
			seen["one-wide range"] = true
		}
		if c := rg[0]; c > 0 && c < len(s.rec) && s.rec[c-1].static != s.rec[c].static {
			seen["cut at static/dynamic"] = true
		}
	}
}

// TestPairSortMatchesComparison holds the counting pair sort to the
// comparison sort it replaced (cmpPair), on unique pair sets split over
// up to four input lists (some empty), appended after a prefix that must
// survive: no pairs, the largest id, one plane's bucket of thousands,
// input already in order and reversed, and random sets. One pairSort is
// reused throughout, so scratch left by a larger sort must not leak into
// a smaller one. sortTail, the in-place form, must agree too.
func TestPairSortMatchesComparison(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	randomPairs := func(ids, n int) []Pair {
		set := map[Pair]bool{}
		for len(set) < n {
			a, b := int32(r.Intn(ids)), int32(r.Intn(ids))
			if a != b {
				set[Pair{A: min(a, b), B: max(a, b)}] = true
			}
		}
		var ps []Pair
		for p := range set {
			ps = append(ps, p)
		}
		slices.SortFunc(ps, cmpPair) // map order is not random enough to be a test input
		r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		return ps
	}
	sorted := randomPairs(300, 2000)
	slices.SortFunc(sorted, cmpPair)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	var plane []Pair
	for b := int32(1); b < 5000; b++ {
		plane = append(plane, Pair{A: 0, B: b})
	}
	plane = append(plane, randomPairs(5000, 3000)...)
	plane = slices.DeleteFunc(plane, func(p Pair) bool { return p.A == 0 && p.B > 4000 && p.B%2 == 0 })
	r.Shuffle(len(plane), func(i, j int) { plane[i], plane[j] = plane[j], plane[i] })

	var ps pairSort
	for _, tc := range []struct {
		name  string
		ids   int
		pairs []Pair
	}{
		{"random", 200, randomPairs(200, 1500)},
		{"empty", 10, nil},
		{"max id", 1 << 16, []Pair{{A: 1<<16 - 2, B: 1<<16 - 1}, {A: 0, B: 1<<16 - 1}, {A: 5, B: 6}, {A: 0, B: 1}}},
		{"plane bucket", 5000, plane},
		{"sorted", 300, sorted},
		{"reversed", 300, reversed},
		{"small after large", 4, []Pair{{A: 2, B: 3}, {A: 0, B: 3}, {A: 1, B: 2}, {A: 0, B: 1}}},
	} {
		want := slices.Clone(tc.pairs)
		slices.SortFunc(want, cmpPair)
		for trial := 0; trial < 4; trial++ {
			var lists [][]Pair
			rest := tc.pairs
			for k := r.Intn(4); k > 0; k-- {
				cut := r.Intn(len(rest) + 1)
				lists, rest = append(lists, rest[:cut]), rest[cut:]
			}
			lists = append(lists, rest)
			prefix := []Pair{{A: 7, B: 3}, {A: 1, B: 0}} // out of order: must be left alone
			got := ps.sort(tc.ids, lists, slices.Clone(prefix))
			if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], want) {
				t.Fatalf("%s, %d lists: counting sort disagrees with the comparison sort", tc.name, len(lists))
			}
		}
		inPlace := append(slices.Clone([]Pair{{A: 9, B: 1}}), tc.pairs...)
		inPlace = ps.sortTail(tc.ids, inPlace, 1)
		if inPlace[0] != (Pair{A: 9, B: 1}) || !slices.Equal(inPlace[1:], want) {
			t.Fatalf("%s: sortTail disagrees with the comparison sort", tc.name)
		}
	}
}
