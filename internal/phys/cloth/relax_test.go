package cloth

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/m3"
)

// referenceRelax is Relax as it was before the wavefront schedule: the
// same update, swept over Constraints in input order. The schedule is a
// permutation that keeps every particle-sharing pair in that order, so
// Relax must reproduce this loop bit for bit.
func referenceRelax(c *Cloth) {
	st := &c.LastStats
	for it := 0; it < c.Iterations; it++ {
		for _, con := range c.Constraints {
			a := &c.Particles[con.I]
			b := &c.Particles[con.J]
			d := b.Pos.Sub(a.Pos)
			dist := d.Len()
			if dist < m3.Eps {
				continue
			}
			w := a.InvMass + b.InvMass
			if w == 0 {
				continue
			}
			corr := d.Scale((dist - con.Rest) / dist / w)
			a.Pos = a.Pos.Add(corr.Scale(a.InvMass))
			b.Pos = b.Pos.Sub(corr.Scale(b.InvMass))
			st.ConstraintUpdates++
		}
	}
}

// hostileGrid is an nx-by-nz grid (at least three particles) plus
// everything a constraint list may legally hold that NewGrid never emits:
// random long-range constraints, exact duplicates, I == J, a constraint
// between two pinned particles, and two particles at one position
// (dist < Eps: the update is skipped).
func hostileGrid(r *rand.Rand, nx, nz int) *Cloth {
	c := NewGrid(nx, nz, 0.1, m3.V(0, 2, 0), 1)
	n := int32(len(c.Particles))
	for k := 0; k < 2*int(n); k++ {
		i, j := r.Int31n(n), r.Int31n(n)
		c.Constraints = append(c.Constraints, Constraint{I: i, J: j, Rest: 0.05 + 0.3*r.Float64()})
	}
	for k := 0; k < 4; k++ {
		c.Constraints = append(c.Constraints, c.Constraints[r.Intn(len(c.Constraints))])
	}
	c.PinParticle(0)
	c.PinParticle(n - 1)
	c.Particles[1].Pos, c.Particles[1].Prev = c.Particles[2].Pos, c.Particles[2].Prev
	c.Constraints = append(c.Constraints,
		Constraint{I: n - 1, J: n - 1, Rest: 0.1},
		Constraint{I: 0, J: n - 1, Rest: 0.2},
		Constraint{I: 1, J: 2, Rest: 0.1})
	// Shuffled, so the input order is not the grid's row-major one.
	r.Shuffle(len(c.Constraints), func(a, b int) {
		c.Constraints[a], c.Constraints[b] = c.Constraints[b], c.Constraints[a]
	})
	return c
}

// relaxTwin copies the state Integrate and Relax read and write; the copy
// has no schedule.
func relaxTwin(c *Cloth) *Cloth {
	return &Cloth{
		Particles:   append([]Particle(nil), c.Particles...),
		Constraints: append([]Constraint(nil), c.Constraints...),
		Iterations:  c.Iterations,
		Damping:     c.Damping,
	}
}

// TestRelaxMatchesReference steps one cloth through Relax and its twin
// through referenceRelax, 100 Integrate+Relax steps each, and demands
// bit-equal particles and stats after every step — on plain grids
// (including the one-row and one-column ones) and on hostileGrid's.
// Two edits land after the first Relax has built the schedule: a pin,
// whose InvMass the sweep must read from the particle and not from a
// copy taken at schedule time, and an appended constraint, which must
// rebuild the schedule.
func TestRelaxMatchesReference(t *testing.T) {
	for _, g := range [][2]int{{1, 9}, {9, 1}, {5, 5}, {25, 25}} {
		for _, hostile := range []bool{false, true} {
			t.Run(fmt.Sprintf("%dx%d/hostile=%v", g[0], g[1], hostile), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(g[0]*100 + g[1])))
				got := NewGrid(g[0], g[1], 0.1, m3.V(0, 2, 0), 1)
				if hostile {
					got = hostileGrid(r, g[0], g[1])
				}
				got.PinParticle(0)
				want := relaxTwin(got)
				n := int32(len(got.Particles))
				for step := 0; step < 100; step++ {
					switch step {
					case 1:
						got.PinParticle(n / 2)
						want.PinParticle(n / 2)
					case 2:
						extra := Constraint{I: n / 3, J: n - 1, Rest: 0.15}
						got.Constraints = append(got.Constraints, extra)
						want.Constraints = append(want.Constraints, extra)
					}
					got.Integrate(0.01, gravity)
					got.Relax()
					want.Integrate(0.01, gravity)
					referenceRelax(want)
					if got.LastStats != want.LastStats {
						t.Fatalf("step %d: stats %+v, reference %+v", step, got.LastStats, want.LastStats)
					}
					for i := range want.Particles {
						if got.Particles[i] != want.Particles[i] {
							t.Fatalf("step %d: particle %d = %+v, reference %+v", step, i, got.Particles[i], want.Particles[i])
						}
					}
				}
				if got.LastStats.ConstraintUpdates == 0 {
					t.Fatal("no constraint was updated: the comparison is vacuous")
				}
				if !slices.Equal(got.Constraints, want.Constraints) {
					t.Fatal("Relax reordered Constraints itself")
				}
			})
		}
	}
}

// TestScheduleKeepsDependentOrder is the property the exactness argument
// rests on: sched is a permutation of Constraints in which any two
// entries that share a particle keep their Constraints order.
func TestScheduleKeepsDependentOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := hostileGrid(r, 2+r.Intn(7), 2+r.Intn(7))
		// A rest length unique to each entry identifies it in sched even
		// among exact duplicates.
		for k := range c.Constraints {
			c.Constraints[k].Rest = float64(k)
		}
		c.schedule()
		if len(c.sched) != len(c.Constraints) {
			t.Fatalf("seed %d: schedule has %d entries for %d constraints", seed, len(c.sched), len(c.Constraints))
		}
		seen := make([]bool, len(c.Constraints))
		last := make([]int, len(c.Particles)) // original index of the latest scheduled entry on each particle
		for i := range last {
			last[i] = -1
		}
		for _, con := range c.sched {
			k := int(con.Rest)
			if k < 0 || k >= len(seen) || seen[k] || con != c.Constraints[k] {
				t.Fatalf("seed %d: schedule is not a permutation of Constraints (entry %+v)", seed, con)
			}
			seen[k] = true
			for _, p := range [2]int32{con.I, con.J} {
				if last[p] > k {
					t.Fatalf("seed %d: constraints %d and %d share particle %d and were scheduled in the opposite order", seed, last[p], k, p)
				}
				last[p] = k
			}
		}
	}
}

// BenchmarkRelax times Relax alone on the two cloth shapes Mix carries:
// the 5x5 uniform patch and the 25x25 drape hung by two corners, each
// settled for 60 steps first so the sweep runs on a stretched cloth and
// the schedule is built. ns/con-update is the cloth layer's unit;
// allocs/op must be 0 once scheduled.
func BenchmarkRelax(b *testing.B) {
	for _, g := range []struct {
		name string
		n    int
	}{{"small", 5}, {"large", 25}} {
		b.Run(g.name, func(b *testing.B) {
			c := NewGrid(g.n, g.n, 0.08, m3.V(0, 2, 0), 2)
			c.PinParticle(0)
			c.PinParticle(int32(g.n - 1))
			for i := 0; i < 60; i++ {
				step(c, 0.01)
			}
			settled := append([]Particle(nil), c.Particles...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(c.Particles, settled)
				c.Integrate(0.01, gravity)
				c.Relax()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.Constraints)*c.Iterations), "ns/con-update")
			b.ReportMetric(float64(len(c.Constraints)), "constraints")
		})
	}
}
