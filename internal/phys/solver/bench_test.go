package solver_test

import (
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

// largestIsland settles a paper benchmark for 50 steps (the ladder's
// settle length), then assembles the next step's islands through the
// layers' public entry points — the calls World.Step makes, in its order
// — and returns the world's body list with the rows of the island that
// has the most of them.
func largestIsland(w *world.World) ([]*body.Body, []joint.Row) {
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
	var big island.Island
	var builder island.Builder
	islands, _ := builder.Build(len(w.Bodies), edges, active)
	for _, is := range islands {
		if is.DOF > big.DOF {
			big = is
		}
	}
	p := joint.Params{Dt: w.Dt, ERP: w.ERP, CFM: w.CFM}
	var rows []joint.Row
	for _, ji := range big.Joints {
		base := len(rows)
		rows = w.Joints[ji].Rows(w.Bodies, p, ji, rows)
		for ri := base; ri < len(rows); ri++ {
			rows[ri].BodyA, rows[ri].BodyB = frozen(rows[ri].BodyA), frozen(rows[ri].BodyB)
		}
	}
	for _, ci := range big.Contacts {
		c := &contacts[ci]
		rows = joint.ContactRows(w.Bodies, frozen(int32(w.Geoms[c.A].Body)), frozen(int32(w.Geoms[c.B].Body)),
			c.Pos, c.Normal, c.Depth, joint.DefaultMaterial, p, int32(len(rows)), rows)
	}
	return w.Bodies, rows
}

// BenchmarkSolve times Solver.Solve alone on two captured islands: the
// largest of Ragdoll (one jointed humanoid on the ground, the shape
// step-solver is made of) and of Mix (the ~3 000-row pile that is the
// serial tail of step-mix). Each iteration restores the island's
// pre-solve velocities, so every solve does the same work; ns/row-update
// is the solver layer's unit (the ladder's solver.ns_per_row_update),
// and allocs/op must be 0 once the workspace has grown.
func BenchmarkSolve(b *testing.B) {
	for _, scene := range []string{"Ragdoll", "Mix"} {
		b.Run("scene="+scene, func(b *testing.B) {
			bench, ok := workload.ByName(scene)
			if !ok {
				b.Fatalf("no benchmark named %s", scene)
			}
			w := bench.Build(1.0)
			bs, rows := largestIsland(w)
			if len(rows) == 0 {
				b.Fatal("captured an empty island")
			}
			type vel struct {
				b        *body.Body
				lin, ang m3.Vec
			}
			var saved []vel
			seen := make(map[int32]bool)
			for _, r := range rows {
				for _, bi := range [2]int32{r.BodyA, r.BodyB} {
					if bi >= 0 && !seen[bi] {
						seen[bi] = true
						saved = append(saved, vel{bs[bi], bs[bi].LinVel, bs[bi].AngVel})
					}
				}
			}
			// As the engine calls it: joint load feedback and stats on.
			s, load := solver.New(), make([]float64, len(w.Joints))
			var st solver.Stats
			var ws solver.Workspace
			s.Solve(bs, rows, w.Dt, load, &st, &ws) // grow the workspace
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, v := range saved {
					v.b.LinVel, v.b.AngVel = v.lin, v.ang
				}
				s.Solve(bs, rows, w.Dt, load, &st, &ws)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)*s.Iterations), "ns/row-update")
			b.ReportMetric(float64(len(rows)), "rows")
		})
	}
}
