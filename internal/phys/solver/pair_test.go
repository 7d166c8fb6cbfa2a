package solver_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/body"
	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/joint"
	"github.com/parallax-arch/parallax/internal/phys/m3"
	"github.com/parallax-arch/parallax/internal/phys/solver"
	"github.com/parallax-arch/parallax/internal/phys/workload"
)

// copyBodies returns private copies of bs, so one island set can be solved
// several ways from the same starting velocities.
func copyBodies(bs []*body.Body) []*body.Body {
	out := make([]*body.Body, len(bs))
	for i, b := range bs {
		c := *b
		out[i] = &c
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameVecBits(a, b m3.Vec) bool {
	return sameBits(a.X, b.X) && sameBits(a.Y, b.Y) && sameBits(a.Z, b.Z)
}

// pairMatchesSolve solves islands p and q, which share no body, once as
// SolvePair(p, q) and once as Solve(p) then Solve(q), each on private
// copies of bs, and requires every output to be bit-equal: all body
// velocities, each island's impulses, jointLoad and both Stats.
func pairMatchesSolve(t *testing.T, what string, s *solver.Solver, bs []*body.Body,
	p, q []joint.Row, joints int) {

	t.Helper()
	wantBs, gotBs := copyBodies(bs), copyBodies(bs)
	wantLoad, gotLoad := make([]float64, joints), make([]float64, joints)
	var wantP, wantQ, gotP, gotQ solver.Stats
	var ws solver.Workspace
	wantLamP := append([]float64(nil), s.Solve(wantBs, p, 0.01, wantLoad, &wantP, &ws)...)
	wantLamQ := append([]float64(nil), s.Solve(wantBs, q, 0.01, wantLoad, &wantQ, &ws)...)
	// A workspace that has solved something else first, as a worker's has.
	lamP, lamQ := s.SolvePair(gotBs, p, q, 0.01, gotLoad, &gotP, &gotQ, &ws)

	for _, c := range []struct {
		island    string
		got, want []float64
	}{{"p", lamP, wantLamP}, {"q", lamQ, wantLamQ}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: island %s: %d impulses, Solve gave %d", what, c.island, len(c.got), len(c.want))
		}
		for i := range c.want {
			if !sameBits(c.got[i], c.want[i]) {
				t.Fatalf("%s: island %s: lambda[%d] = %v, Solve gave %v", what, c.island, i, c.got[i], c.want[i])
			}
		}
	}
	for i := range wantBs {
		if !sameVecBits(gotBs[i].LinVel, wantBs[i].LinVel) || !sameVecBits(gotBs[i].AngVel, wantBs[i].AngVel) {
			t.Fatalf("%s: body %d velocity = %v %v, Solve gave %v %v", what, i,
				gotBs[i].LinVel, gotBs[i].AngVel, wantBs[i].LinVel, wantBs[i].AngVel)
		}
	}
	for j := range wantLoad {
		if !sameBits(gotLoad[j], wantLoad[j]) {
			t.Fatalf("%s: jointLoad[%d] = %v, Solve gave %v", what, j, gotLoad[j], wantLoad[j])
		}
	}
	if gotP != wantP || gotQ != wantQ {
		t.Fatalf("%s: stats = %+v / %+v, Solve gave %+v / %+v", what, gotP, gotQ, wantP, wantQ)
	}
}

// TestSolvePairMatchesSolve pins SolvePair's promise: interleaving two
// islands' rows changes no bit of what the islands get. Captured islands
// from three paper benchmarks, both ways round and largest with smallest,
// then built islands for the edges of the interleave.
func TestSolvePairMatchesSolve(t *testing.T) {
	for _, sc := range []struct {
		name  string
		scale float64
	}{{"Ragdoll", 1}, {"Continuous", 4}, {"Mix", 1}} {
		bench, ok := workload.ByName(sc.name)
		if !ok {
			t.Fatalf("no benchmark named %s", sc.name)
		}
		w := bench.Build(sc.scale)
		bs, islands := largestIslands(w, math.MaxInt)
		if len(islands) < 3 {
			t.Fatalf("%s: captured %d islands, want at least 3", sc.name, len(islands))
		}
		last := len(islands) - 1
		s := solver.New()
		for _, pq := range [][2]int{{0, 1}, {1, 0}, {1, 2}, {0, last}, {last, 0}} {
			what := fmt.Sprintf("%s islands %d and %d", sc.name, pq[0], pq[1])
			pairMatchesSolve(t, what, s, bs, islands[pq[0]], islands[pq[1]], len(w.Joints))
		}
	}

	// Six spheres: 0–2 a chain (a ball joint, and a hinge to the static
	// world), 3–4 a pile (ground contacts and one between them), 5 alone
	// (one normal row against the ground). They slide fast enough that
	// friction sits at its bound, so a friction row reading the wrong
	// normal impulse changes the answer.
	bs := make([]*body.Body, 6)
	for i := range bs {
		mass := 1 + float64(i)/2
		b := body.New(mass, geom.Sphere{R: 0.5}.Inertia(mass))
		b.ID = i
		b.Pos = m3.V(float64(i), 0.45, 0)
		b.LinVel = m3.V(8*float64(i)-14, -2-float64(i)/3, 0.1)
		b.AngVel = m3.V(0.5, float64(i)/4, -0.2)
		bs[i] = b
	}
	prm := joint.Params{Dt: 0.01, ERP: 0.2, CFM: 1e-9}
	up := m3.V(0, 1, 0)
	chain := joint.NewBall(bs, 0, 1, m3.V(0.5, 0.45, 0)).Rows(bs, prm, 0, nil)
	chain = joint.NewHinge(bs, 2, -1, m3.V(2, 1, 0), m3.V(0, 0, 1)).Rows(bs, prm, 1, chain)
	chain = joint.NewBall(bs, 1, 2, m3.V(1.5, 0.45, 0)).Rows(bs, prm, 2, chain)
	var pile []joint.Row
	pile = joint.ContactRows(bs, -1, 3, m3.V(3, 0, 0), up, 0.05, joint.DefaultMaterial, prm, 0, pile)
	pile = joint.ContactRows(bs, 3, 4, m3.V(3.5, 0.45, 0), m3.V(1, 0, 0), 0.02, joint.DefaultMaterial, prm, 3, pile)
	pile = joint.ContactRows(bs, 4, -1, m3.V(4, 0, 0), up.Neg(), 0.04, joint.DefaultMaterial, prm, 6, pile)
	alone := joint.ContactRows(bs, -1, 5, m3.V(5, 0, 0), up, 0.03, joint.DefaultMaterial, prm, 0, nil)[:1]
	warm := append([]joint.Row(nil), pile...)
	for i := range warm {
		warm[i].Warm = 0.05 * float64(i+1)
	}
	chainWarm := append([]joint.Row(nil), chain...)
	for i := range chainWarm {
		chainWarm[i].Warm = -0.02 * float64(i+1)
	}

	s := solver.New()
	for _, c := range []struct {
		what string
		s    *solver.Solver
		p, q []joint.Row
	}{
		{"q is empty", s, chain, nil},
		{"p has zero rows", s, nil, pile},
		{"both empty", s, nil, nil},
		{"p shorter than q, friction rows in q's tail", s, alone, pile},
		{"p longer than q, friction rows in p's tail", s, pile, alone},
		{"joints against contacts, static endpoints", s, chain, pile},
		{"warm start", s, chainWarm, warm},
		{"warm pile against a cold chain, 9 sweeps", &solver.Solver{Iterations: 9}, warm, chain},
		{"warm chain in q's tail, 3 sweeps", &solver.Solver{Iterations: 3}, alone, chainWarm},
	} {
		pairMatchesSolve(t, c.what, c.s, bs, c.p, c.q, 3)
	}
}
