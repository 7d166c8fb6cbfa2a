package lint_test

import (
	"go/ast"
	"path/filepath"
	"strings"
	"testing"

	"github.com/parallax-arch/parallax/internal/lint"
	"github.com/parallax-arch/parallax/internal/lint/linttest"
)

func TestDeterminism(t *testing.T) {
	linttest.Run(t, lint.Determinism, filepath.Join("testdata", "determinism"))
}

func TestFloatCmp(t *testing.T) {
	linttest.Run(t, lint.FloatCmp, filepath.Join("testdata", "floatcmp"))
}

func TestChunkOwn(t *testing.T) {
	linttest.Run(t, lint.ChunkOwn, filepath.Join("testdata", "chunkown"))
}

// TestParSafe drives the call-graph analyzer over a three-package
// fixture. The dep subpackage chain (no directive on any frame) is the
// load-bearing case: the alloc finding three frames below the root
// exists because of transitive propagation alone — deleting a directive
// cannot hide an allocation. The serial subpackage holds the
// allocating-construct cases under //paraxlint:noalloc roots, and pins
// that such a root is held to the allocation rule only.
func TestParSafe(t *testing.T) {
	linttest.Run(t, lint.ParSafe, filepath.Join("testdata", "parsafe"))
}

// TestAllowSemantics pins the escape-hatch contract: an allow comment
// suppresses findings on exactly one line, and an unused allow is itself
// a finding (see testdata/allow).
func TestAllowSemantics(t *testing.T) {
	linttest.Run(t, lint.ParSafe, filepath.Join("testdata", "allow"))
}

// TestUnmatchedPackageStillReaches: a package outside a run's patterns
// is still analyzed, only not reported. With the parsafe fixture's root
// package unmatched, its parroot still reaches the dep chain, so the
// allocation three frames down is still a finding; nothing in the
// root's own files is; and the rest equals the full run's findings.
func TestUnmatchedPackageStillReaches(t *testing.T) {
	dir := filepath.Join("testdata", "parsafe")
	pkgs := linttest.Load(t, dir)
	all, err := lint.Run(lint.ParSafe, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	pkgs[len(pkgs)-1].Unmatched = true // Load returns the root last
	sub, err := lint.Run(lint.ParSafe, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, d := range all {
		if filepath.Dir(d.Position.Filename) != dir {
			want = append(want, d.Position.String()+": "+d.Message)
		}
	}
	chain := false
	for _, d := range sub {
		got = append(got, d.Position.String()+": "+d.Message)
		chain = chain || filepath.Base(d.Position.Filename) == "dep.go" && strings.Contains(d.Message, "call to make allocates")
	}
	if !chain {
		t.Error("the dep chain's allocation is not reported once the root package is unmatched")
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings with the root unmatched:\n%s\nwant the full run's outside the root:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestLookup pins -only's name resolution: names come back in the order
// given, and an unknown one is an error listing the valid names.
func TestLookup(t *testing.T) {
	as, err := lint.Lookup("parsafe", "determinism")
	if err != nil || len(as) != 2 || as[0] != lint.ParSafe || as[1] != lint.Determinism {
		t.Fatalf("Lookup(parsafe, determinism) = %v, %v", as, err)
	}
	_, err = lint.Lookup("parsafe", "nosuch")
	if err == nil || !strings.Contains(err.Error(), `"nosuch"`) ||
		!strings.Contains(err.Error(), "determinism, floatcmp, chunkown, parsafe") {
		t.Fatalf("Lookup(parsafe, nosuch) error = %v, want one naming nosuch and listing the four analyzers", err)
	}
}

const modPath = "github.com/parallax-arch/parallax"

// loadRepo loads the whole module, every package matched, shared by the
// tree-wide tests below.
func loadRepo(t *testing.T, patterns ...string) []*lint.Package {
	t.Helper()
	if len(patterns) == 0 {
		patterns = []string{modPath + "/..."}
	}
	pkgs, err := lint.LoadModule(patterns...)
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	return pkgs
}

// runAll runs the whole suite and fails the test on every finding.
func runAll(t *testing.T, pkgs []*lint.Package) {
	t.Helper()
	for _, a := range lint.All {
		diags, err := lint.Run(a, pkgs)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s (%s)", d.Position, d.Message, d.Analyzer)
		}
	}
}

// TestTreeClean runs the full suite over the whole module, making
// `go test` subsume `go run ./cmd/paraxlint ./...`: a deliberate
// allocation in a worker's call graph, a package-variable write in a
// parallel phase, or a fresh unsorted map-range print fails this test.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	runAll(t, loadRepo(t))
}

// TestSubsetRunsAreClean: a run over some packages reports what the
// whole-module run reports in them, which on a clean tree is nothing.
// These three subsets once failed on their own — the tracer's waivers
// read as unused without pool.loop, cloth's and the arena's without the
// callers that reach them — and every other package must load
// unmatched.
func TestSubsetRunsAreClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	for _, dir := range []string{"/internal/obs/...", "/internal/phys/cloth/...", "/internal/phys/arena"} {
		t.Run(dir, func(t *testing.T) {
			pkgs := loadRepo(t, modPath+dir)
			root, tree := strings.CutSuffix(modPath+dir, "/...")
			for _, pkg := range pkgs {
				in := pkg.Path == root || tree && strings.HasPrefix(pkg.Path, root+"/")
				if pkg.Unmatched == in {
					t.Errorf("%s: Unmatched = %v", pkg.Path, pkg.Unmatched)
				}
			}
			runAll(t, pkgs)
		})
	}
}

// TestParsafeReachable pins the shape of the real call graph. From the
// worker root (pool.loop) it must reach the engine's deep hot-path
// callees — the solver iteration, narrow-phase dispatch, body
// integration and the tracer's span recording; from the serial root
// (World.Step) the broad phase, the island builder and the post-step
// telemetry. A loader or devirtualization regression that silently
// disconnects the graph (leaving nothing checked) fails here rather
// than passing vacuously.
func TestParsafeReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	names := lint.ParsafeReachable(loadRepo(t))
	if len(names) < 50 {
		t.Fatalf("parsafe reachable set has %d functions; expected a deep graph (>= 50)", len(names))
	}
	reach := make(map[string]bool, len(names))
	for _, n := range names {
		reach[n] = true
	}
	const mod = modPath + "/internal/"
	for _, want := range []string{
		"(*" + mod + "phys/solver.Solver).Solve",
		"(*" + mod + "phys/solver.Workspace).slotFor",
		"(*" + mod + "phys/narrowphase.Scratch).Collide",
		"(*" + mod + "phys/body.Body).IntegrateVelocity",
		"(*" + mod + "phys/body.Body).IntegratePosition",
		"(*" + mod + "phys/cloth.Cloth).Relax",
		"(*" + mod + "obs.Lane).Begin",
		"(*" + mod + "obs.Lane).End",
	} {
		if !reach[want] {
			t.Errorf("parsafe reachable set is missing %s", want)
		}
	}
	// Every function that carried its own //paraxlint:noalloc directive
	// before the per-function checker was folded into parsafe, less the
	// broad-phase Pairs/run wrappers and the two dispatch helpers that no
	// longer exist (World.run and World.runChunks stand in for the
	// latter). Dropping the directives must not have dropped the
	// coverage.
	for _, want := range []string{
		"(*" + mod + "obs.Health).Update",
		"(*" + mod + "obs.Health).trip",
		"(*" + mod + "obs.Registry).Add",
		"(*" + mod + "obs.Registry).SetGauge",
		"(*" + mod + "obs.Registry).ObserveInt",
		"(*" + mod + "obs.Series).Set",
		"(*" + mod + "obs.Series).Advance",
		"(*" + mod + "obs.Lane).Complete",
		"(*" + mod + "phys/body.Body).AddForce",
		"(*" + mod + "phys/body.Body).AddTorque",
		"(*" + mod + "phys/body.Body).AddForceAt",
		"(*" + mod + "phys/body.Body).ApplyImpulse",
		"(*" + mod + "phys/body.Body).Wake",
		mod + "phys/broadphase.shouldPair",
		"(*" + mod + "phys/broadphase.SweepAndPrune).PairsPrerefreshed",
		"(*" + mod + "phys/broadphase.SweepAndPrune).insertionSort",
		mod + "phys/broadphase.bestAxis",
		mod + "phys/broadphase.appendPair",
		mod + "phys/broadphase.cellKey",
		"(*" + mod + "phys/broadphase.SpatialHash).PairsPrerefreshed",
		// The comparison sortPairs was replaced by the counting pairSort,
		// and the pass's sweep is now worker-reachable through SweepRange.
		"(*" + mod + "phys/broadphase.SweepAndPrune).SweepRange",
		"(*" + mod + "phys/broadphase.pairSort).sort",
		"(*" + mod + "phys/broadphase.IncrementalSAP).PairsPrerefreshed",
		"(*" + mod + "phys/broadphase.IncrementalSAP).sortIncremental",
		"(*" + mod + "phys/broadphase.IncrementalSAP).rebuild",
		mod + "phys/broadphase.epAfter",
		mod + "phys/broadphase.pairKeyOf",
		"(*" + mod + "phys/cloth.Cloth).ApplyBlast",
		"(*" + mod + "phys/island.Builder).find",
		"(*" + mod + "phys/island.Builder).union",
		"(*" + mod + "phys/island.Builder).on",
		"(*" + mod + "phys/island.Builder).Build",
		"(*" + mod + "phys/joint.Breakable).ApplyLoad",
		"(*" + mod + "phys/world.World).recordStepMetrics",
		"(*" + mod + "phys/world.World).recordTelemetry",
		"(*" + mod + "phys/world.pool).start",
		"(*" + mod + "phys/world.pool).drain",
		"(*" + mod + "phys/world.pool).finish",
		"(*" + mod + "phys/world.World).run",
		"(*" + mod + "phys/world.World).runChunks",
		"(*" + mod + "phys/world.StepProfile).reset",
		"(*" + mod + "phys/world.StepProfile).AppendIslandDOFs",
		"(*" + mod + "phys/world.frameScratch).beginStep",
		"(*" + mod + "phys/world.frameScratch).beginIslands",
		// The step arena's one growth rule, a generic in a leaf package:
		// every call site instantiates it from another package, so this
		// entry also pins that call edges resolve through
		// (*types.Func).Origin across package boundaries.
		mod + "phys/arena.Grow",
		"(*" + mod + "phys/world.World).Step",
		"(*" + mod + "phys/world.World).bodyMoving",
		"(*" + mod + "phys/world.World).bodyPose",
	} {
		if !reach[want] {
			t.Errorf("reachable set lost %s, which carried //paraxlint:noalloc before the fold", want)
		}
	}
}

// maxWaivers caps the //paraxlint:allow comments outside internal/lint.
// The count must shrink, not grow: lower this number when a waiver goes,
// and never raise it.
const maxWaivers = 9

// TestDirectiveDrift walks every //paraxlint: comment in the module and
// verifies some analyzer actually consumes it: allow categories must be
// owned by an analyzer in the suite, and directive names must be known
// AND sit in a function's doc comment (a directive floating elsewhere
// is silently ignored — which is drift, not enforcement). It also holds
// the waivers outside internal/lint to maxWaivers.
func TestDirectiveDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	ownedCats := map[string]bool{}
	for _, a := range lint.All {
		for _, c := range a.Categories {
			ownedCats[c] = true
		}
	}
	// noalloc, parroot and coldpath are read by ParSafe, tolerance by
	// FloatCmp. A new directive must be added here in the same change
	// that adds its consumer.
	knownDirectives := map[string]bool{
		"noalloc": true, "parroot": true, "coldpath": true, "tolerance": true,
	}

	var waivers []string
	for _, pkg := range loadRepo(t) {
		for _, f := range pkg.Files {
			// Comments that live in a FuncDecl's doc are consumed by the
			// directive scanners.
			inDoc := map[*ast.Comment]bool{}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					inDoc[c] = true
				}
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(strings.TrimSpace(c.Text), "//paraxlint:")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					if cat, ok := strings.CutPrefix(rest, "allow("); ok {
						close := strings.IndexByte(cat, ')')
						if close < 0 {
							t.Errorf("%s: malformed allow comment %q", pos, c.Text)
							continue
						}
						if !ownedCats[cat[:close]] {
							t.Errorf("%s: allow category %q is owned by no analyzer", pos, cat[:close])
						}
						if !strings.Contains(filepath.ToSlash(pos.Filename), "/internal/lint/") {
							waivers = append(waivers, pos.String())
						}
						continue
					}
					name, _, _ := strings.Cut(rest, " ")
					if !knownDirectives[name] {
						t.Errorf("%s: unknown directive //paraxlint:%s", pos, name)
						continue
					}
					if !inDoc[c] {
						t.Errorf("%s: directive //paraxlint:%s is not in a function's doc comment and is silently ignored", pos, name)
					}
				}
			}
		}
	}
	if len(waivers) > maxWaivers {
		t.Errorf("%d //paraxlint:allow waivers outside internal/lint, at most %d allowed: remove a waiver (fix the code it excuses) instead of raising the limit:\n%s",
			len(waivers), maxWaivers, strings.Join(waivers, "\n"))
	}
}
