package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/broadphase"
	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/m3"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// testScale keeps unit tests fast; full scale runs in the bench harness.
const testScale = 0.12

func TestAllBenchmarksBuildAndStep(t *testing.T) {
	for _, b := range All {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			w := b.Build(testScale)
			if len(w.Bodies) == 0 {
				t.Fatal("benchmark has no bodies")
			}
			for i := 0; i < 6; i++ { // two frames
				w.Step()
			}
			for bi, bd := range w.Bodies {
				if !bd.Valid() {
					t.Fatalf("body %d invalid after stepping", bi)
				}
			}
			if w.Profile.Pairs == 0 {
				t.Error("benchmark produced no candidate pairs")
			}
		})
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("Mix"); !ok {
		t.Error("Mix not found")
	}
	if _, ok := ByName("Nope"); ok {
		t.Error("unknown benchmark found")
	}
	if len(All) != 8 {
		t.Errorf("suite has %d benchmarks, want 8", len(All))
	}
}

func TestHumanoidSegmentCount(t *testing.T) {
	w := world.New()
	b := newBuilder(w, 1)
	h := b.humanoid(m3.Zero, false)
	if len(h.Bodies) != 16 {
		t.Errorf("humanoid segments = %d, want 16", len(h.Bodies))
	}
	if b.permJoints != 15 {
		t.Errorf("humanoid joints = %d, want 15", b.permJoints)
	}
}

func TestPeriodicComposition(t *testing.T) {
	_, dynamic, prefractured, cloths, _, joints := Composition(BuildPeriodic(1.0))
	if dynamic != 480 {
		t.Errorf("Periodic dynamic objects = %d, want 480 (30 humanoids x 16)", dynamic)
	}
	if joints != 450 {
		t.Errorf("Periodic joints = %d, want 450", joints)
	}
	if cloths != 0 || prefractured != 0 {
		t.Errorf("Periodic should have no cloth or prefracture: %d cloths, %d prefractured", cloths, prefractured)
	}
}

func TestDeformableComposition(t *testing.T) {
	_, _, _, cloths, verts, _ := Composition(BuildDeformable(1.0))
	if cloths != 32 {
		t.Errorf("Deformable cloths = %d, want 32 (30 small + 2 large)", cloths)
	}
	if verts != 30*25+2*625 {
		t.Errorf("Deformable cloth verts = %d, want %d", verts, 30*25+2*625)
	}
}

func TestBreakableHasPrefracture(t *testing.T) {
	w := BuildBreakable(testScale)
	if _, _, prefractured, _, _, _ := Composition(w); prefractured == 0 {
		t.Error("Breakable has no prefractured debris")
	}
	if len(w.Explosives) == 0 {
		t.Error("Breakable has no explosives")
	}
	if len(w.Fractures) == 0 {
		t.Error("Breakable has no fracture groups")
	}
}

func TestExplosionsDetonateOverTime(t *testing.T) {
	w := BuildExplosions(testScale)
	totalExpl := 0
	for i := 0; i < 40; i++ {
		w.Step()
		totalExpl += w.Profile.Explosions
	}
	if totalExpl == 0 {
		t.Error("no explosions fired in Explosions benchmark")
	}
}

func TestHighspeedProjectilesHit(t *testing.T) {
	w := BuildHighspeed(testScale)
	// Projectiles at 90 m/s should produce contacts within a second.
	contacts := 0
	for i := 0; i < 60; i++ {
		w.Step()
		contacts += w.Profile.Contacts
	}
	if contacts == 0 {
		t.Error("no contacts in Highspeed benchmark")
	}
}

func TestMixHasEverything(t *testing.T) {
	w := BuildMix(testScale)
	_, _, prefractured, cloths, _, _ := Composition(w)
	if cloths == 0 {
		t.Error("Mix has no cloth")
	}
	if prefractured == 0 {
		t.Error("Mix has no prefracture")
	}
	if len(w.Explosives) == 0 {
		t.Error("Mix has no explosives")
	}
	hasHF := false
	for _, g := range w.Geoms {
		if g.Shape.Kind() == geom.KindHeightField {
			hasHF = true
		}
	}
	if !hasHF {
		t.Error("Mix has no heightfield terrain")
	}
}

// TestCallerWorksTheClothQueue: at two threads the calling goroutine
// claims cloths off the same cursor as the one pool worker, so its trace
// lane carries cloth-object spans. (It used to post every cloth to the
// pool and sleep until the worker had stepped them all: its lane never
// recorded one, and two threads ran the cloth phase no faster than one.)
func TestCallerWorksTheClothQueue(t *testing.T) {
	w := BuildMix(0.25)
	if len(w.Cloths) < 2 {
		t.Fatalf("Mix@0.25 has %d cloths; the test needs a queue of at least 2", len(w.Cloths))
	}
	lanes := laneSpans(t, w, "cloth-object")
	if lanes["mix/worker0"] == 0 {
		t.Errorf("the calling goroutine's lane recorded no cloth-object span in 20 steps of %d cloths (per lane: %v)", len(w.Cloths), lanes)
	}
}

// TestWorkerSweepsChunks: at two threads the broad phase's sweep is two
// chunks of start positions, and the pool worker claims the queued one,
// so its lane carries sweep-chunk spans. (Until the pass was split, the
// whole pair pass ran on the calling goroutine.)
func TestWorkerSweepsChunks(t *testing.T) {
	lanes := laneSpans(t, BuildMix(0.25), "sweep-chunk")
	if lanes["mix/worker0"] == 0 || lanes["mix/worker1"] == 0 {
		t.Errorf("want sweep-chunk spans on both lanes in 20 steps, have %v", lanes)
	}
}

// laneSpans steps w at two threads under a tracer for 20 steps and
// counts the spans of the given name that each trace lane recorded, by lane
// name. The two lanes are mix/worker0 (the calling goroutine) and
// mix/worker1 (the pool's worker); both must be in the trace.
func laneSpans(t *testing.T, w *world.World, span string) map[string]int {
	t.Helper()
	w.SetThreads(2)
	defer w.SetThreads(1) // stops the worker pool
	tr := obs.NewTracer()
	w.SetObs(tr, nil, "mix")
	for i := 0; i < 20; i++ {
		w.Step()
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Tid  int    `json:"tid"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	laneOf, perTid := map[int]string{}, map[int]int{}
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name":
			laneOf[e.Tid] = e.Args.Name
		case e.Ph == "X" && e.Name == span:
			perTid[e.Tid]++
		}
	}
	lanes := map[string]int{}
	for tid, name := range laneOf {
		lanes[name] = perTid[tid]
	}
	for _, name := range []string{"mix/worker0", "mix/worker1"} {
		if _, ok := lanes[name]; !ok {
			t.Fatalf("trace has no lane named %s (lanes: %v)", name, lanes)
		}
	}
	return lanes
}

// firstStepPairs steps w once (the paper warms each benchmark for one
// step before measuring) and returns its candidate pair count.
func firstStepPairs(w *world.World) int {
	w.Step()
	return w.Profile.Pairs
}

func TestEverySceneHasPairsAfterOneStep(t *testing.T) {
	for _, b := range All {
		if firstStepPairs(b.Build(0.06)) == 0 {
			t.Errorf("%s@0.06: no object pairs after one step", b.Name)
		}
	}
}

func TestComplexityOrdering(t *testing.T) {
	// The suite is designed to scale in complexity from Periodic to Mix
	// (paper: "The distribution of execution times shows good complexity
	// scaling ranging from Periodic to Mix"). Check the pair counts of
	// the extremes at a common scale.
	per := firstStepPairs(BuildPeriodic(0.1))
	mix := firstStepPairs(BuildMix(0.1))
	if mix <= per {
		t.Errorf("Mix (%d pairs) should exceed Periodic (%d pairs)", mix, per)
	}
}

// TestStepPairListMatchesBruteForce checks the default broad phase inside
// World.Step on the scene shape its sweep is built for and no
// broadphase-package test builds: Continuous is ~90% static obstacles
// around a few cars (one collision group each), Mix adds grouped
// humanoids, cloth proxies, prefractured buildings whose debris starts
// disabled, and blasts. Every step's recorded pair list must be the one
// BruteForce produces stepping a clone of the pre-step world, at one
// thread and at three.
func TestStepPairListMatchesBruteForce(t *testing.T) {
	for _, name := range []string{"Continuous", "Mix"} {
		for _, threads := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/threads=%d", name, threads), func(t *testing.T) {
				b, _ := ByName(name)
				w := b.Build(0.25)
				w.RecordDetail = true
				w.SetThreads(threads)
				defer w.SetThreads(1) // stops the worker pool
				static := 0
				for _, g := range w.Geoms {
					if g.Flags.Has(geom.FlagStatic) {
						static++
					}
				}
				if name == "Continuous" && static*5 < len(w.Geoms)*4 {
					t.Errorf("%d of %d geoms static, want a static-heavy scene", static, len(w.Geoms))
				}
				for step := 0; step < 60; step++ {
					ref, err := w.Clone()
					if err != nil {
						t.Fatal(err)
					}
					ref.Threads = 1
					ref.Broad = broadphase.NewBruteForce()
					ref.Step()
					w.Step()
					if !slices.Equal(w.Profile.PairList, ref.Profile.PairList) {
						t.Fatalf("step %d: %d pairs, brute force %d", step, len(w.Profile.PairList), len(ref.Profile.PairList))
					}
					if w.Profile.Broad.PairsOut != len(w.Profile.PairList) {
						t.Fatalf("step %d: PairsOut %d, pair list has %d", step, w.Profile.Broad.PairsOut, len(w.Profile.PairList))
					}
				}
				if w.Profile.Pairs == 0 {
					t.Error("no pairs at step 60")
				}
			})
		}
	}
}

// TestContactOrderAllBroadPhases pins the order World's warm start is
// built on: whichever broad phase produced the pairs, and however many
// narrow-phase chunks were merged, the step's contact list is strictly
// increasing in (geom pair, ordinal within the pair) — ordinal counted
// the order-blind way, as the number of earlier contacts of that pair.
func TestContactOrderAllBroadPhases(t *testing.T) {
	for _, b := range All {
		for _, bp := range []struct {
			name string
			make func() broadphase.Interface
		}{
			{"sap", func() broadphase.Interface { return broadphase.NewSweepAndPrune() }},
			{"incsap", func() broadphase.Interface { return broadphase.NewIncrementalSAP() }},
			{"hash", func() broadphase.Interface { return broadphase.NewSpatialHash() }},
			{"brute", func() broadphase.Interface { return broadphase.NewBruteForce() }},
		} {
			t.Run(b.Name+"/"+bp.name, func(t *testing.T) {
				w := b.Build(0.25)
				w.Broad = bp.make()
				w.RecordDetail = true
				w.SetThreads(3)
				defer w.SetThreads(1) // stops the worker pool
				// 25 steps that have contacts: Ragdoll@0.25 first lands at
				// step 67, every other scene touches down at once.
				withContacts := 0
				for step := 0; step < 120 && withContacts < 25; step++ {
					w.Step()
					seen := map[[2]int32]int{}
					var prev [2]int32
					prevOrd := -1
					for i, c := range w.Profile.ContactGeoms {
						ord := seen[c]
						seen[c]++
						if d := slices.Compare(prev[:], c[:]); d > 0 || d == 0 && prevOrd >= ord {
							t.Fatalf("step %d: contact %d is (pair %v, ordinal %d) after (pair %v, ordinal %d)", step, i, c, ord, prev, prevOrd)
						}
						prev, prevOrd = c, ord
					}
					if len(w.Profile.ContactGeoms) > 0 {
						withContacts++
					}
				}
				if withContacts < 25 {
					t.Errorf("%d steps with contacts in 120, want 25", withContacts)
				}
			})
		}
	}
}
