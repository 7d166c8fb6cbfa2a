package solver_test

import (
	"slices"
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/body"
	"github.com/parallax-arch/parallax/internal/phys/broadphase"
	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/island"
	"github.com/parallax-arch/parallax/internal/phys/joint"
	"github.com/parallax-arch/parallax/internal/phys/m3"
	"github.com/parallax-arch/parallax/internal/phys/narrowphase"
	"github.com/parallax-arch/parallax/internal/phys/solver"
	"github.com/parallax-arch/parallax/internal/phys/workload"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// largestIslands settles a paper benchmark for 50 steps (the ladder's
// settle length), then assembles the next step's islands through the
// layers' public entry points — the calls World.Step makes, in its order
// — and returns the world's body list with the rows of the n islands that
// have the most of them, largest first (fewer if the step has fewer
// islands). Each island's rows are numbered from its own first row, as
// the world builds them.
func largestIslands(w *world.World, n int) ([]*body.Body, [][]joint.Row) {
	for i := 0; i < 50; i++ {
		w.Step()
	}
	for _, g := range w.Geoms {
		if g.Enabled() {
			g.UpdateAABB()
		}
	}
	var contacts []narrowphase.Contact
	var nst narrowphase.Stats
	const noContact = geom.FlagCloth | geom.FlagBlast | geom.FlagExplosive
	for _, pr := range broadphase.NewSweepAndPrune().PairsPrerefreshed(w.Geoms, nil) {
		if a, b := w.Geoms[pr.A], w.Geoms[pr.B]; (a.Flags|b.Flags)&noContact == 0 {
			contacts = narrowphase.Collide(a, b, contacts, &nst)
		}
	}
	var edges []island.Edge
	for i, j := range w.Joints {
		if nr := j.NumRows(); nr > 0 {
			a, b := j.Bodies()
			edges = append(edges, island.Edge{A: a, B: b, Ref: int32(i), DOF: nr})
		}
	}
	for ci := range contacts {
		edges = append(edges, island.Edge{
			A: int32(w.Geoms[contacts[ci].A].Body), B: int32(w.Geoms[contacts[ci].B].Body),
			Ref: int32(ci), IsContact: true, DOF: joint.RowsPerContact,
		})
	}
	active := func(i int32) bool {
		b := w.Bodies[i]
		return b.Enabled && b.InvMass > 0 && !b.Asleep
	}
	frozen := func(i int32) int32 {
		if i >= 0 && !active(i) {
			return -1
		}
		return i
	}
	var builder island.Builder
	islands, _ := builder.Build(len(w.Bodies), edges, active)
	islands = slices.Clone(islands)
	slices.SortStableFunc(islands, func(a, b island.Island) int { return b.DOF - a.DOF })
	p := joint.Params{Dt: w.Dt, ERP: w.ERP, CFM: w.CFM}
	var out [][]joint.Row
	for _, is := range islands[:min(n, len(islands))] {
		var rows []joint.Row
		for _, ji := range is.Joints {
			base := len(rows)
			rows = w.Joints[ji].Rows(w.Bodies, p, ji, rows)
			for ri := base; ri < len(rows); ri++ {
				rows[ri].BodyA, rows[ri].BodyB = frozen(rows[ri].BodyA), frozen(rows[ri].BodyB)
			}
		}
		for _, ci := range is.Contacts {
			c := &contacts[ci]
			rows = joint.ContactRows(w.Bodies, frozen(int32(w.Geoms[c.A].Body)), frozen(int32(w.Geoms[c.B].Body)),
				c.Pos, c.Normal, c.Depth, joint.DefaultMaterial, p, int32(len(rows)), rows)
		}
		out = append(out, rows)
	}
	return w.Bodies, out
}

// BenchmarkSolve times the solver alone on captured islands: the largest
// of Ragdoll (one jointed humanoid on the ground, the shape step-solver is
// made of) and of Mix (one of the three ~3 000-row islands that are the
// serial tail of step-mix) through Solve, and Ragdoll's two largest
// through SolvePair, the way the world solves an island pair.
// Each iteration restores the islands' pre-solve velocities, so every
// solve does the same work; ns/row-update, over every row solved, is the
// solver layer's unit (the ladder's solver.ns_per_row_update), and
// allocs/op must be 0 once the workspace has grown.
func BenchmarkSolve(b *testing.B) {
	for _, c := range []struct {
		scene string
		pair  bool
	}{{"Ragdoll", false}, {"Mix", false}, {"Ragdoll", true}} {
		name := "scene=" + c.scene
		if c.pair {
			name += "/pair"
		}
		b.Run(name, func(b *testing.B) {
			bench, ok := workload.ByName(c.scene)
			if !ok {
				b.Fatalf("no benchmark named %s", c.scene)
			}
			w := bench.Build(1.0)
			n := 1
			if c.pair {
				n = 2
			}
			bs, islands := largestIslands(w, n)
			if len(islands) < n || len(islands[n-1]) == 0 {
				b.Fatalf("captured %d islands, want %d non-empty", len(islands), n)
			}
			p, q := islands[0], []joint.Row(nil)
			if c.pair {
				q = islands[1]
			}
			type vel struct {
				b        *body.Body
				lin, ang m3.Vec
			}
			var saved []vel
			seen := make(map[int32]bool)
			for _, rows := range islands {
				for _, r := range rows {
					for _, bi := range [2]int32{r.BodyA, r.BodyB} {
						if bi >= 0 && !seen[bi] {
							seen[bi] = true
							saved = append(saved, vel{bs[bi], bs[bi].LinVel, bs[bi].AngVel})
						}
					}
				}
			}
			// As the engine calls it: joint load feedback and stats on.
			s, load := solver.New(), make([]float64, len(w.Joints))
			var stP, stQ solver.Stats
			var ws solver.Workspace
			s.SolvePair(bs, p, q, w.Dt, load, &stP, &stQ, &ws) // grow the workspace
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, v := range saved {
					v.b.LinVel, v.b.AngVel = v.lin, v.ang
				}
				if c.pair {
					s.SolvePair(bs, p, q, w.Dt, load, &stP, &stQ, &ws)
				} else {
					s.Solve(bs, p, w.Dt, load, &stP, &ws)
				}
			}
			rows := len(p) + len(q)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*s.Iterations), "ns/row-update")
			b.ReportMetric(float64(rows), "rows")
		})
	}
}
