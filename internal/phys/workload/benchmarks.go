package workload

import (
	"math"

	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/m3"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// Benchmark is one scene of the suite. Build constructs the world at the
// given scale (1.0 = the paper's scale; tests use smaller scales).
type Benchmark struct {
	Name  string
	Genre string
	Desc  string
	Build func(scale float64) *world.World
}

// All lists the eight benchmarks in the paper's order (Table 3).
var All = []Benchmark{
	{"Periodic", "role-playing",
		"groups of humanoids engaging in hand-to-hand combat", BuildPeriodic},
	{"Ragdoll", "first-person shooter",
		"humanoids falling due to impact from projectiles", BuildRagdoll},
	{"Continuous", "racing",
		"cars driving on terrain and between obstacles", BuildContinuous},
	{"Breakable", "first-person shooter",
		"cannons and exploding vehicles fracturing walls and bridges", BuildBreakable},
	{"Deformable", "sports/action",
		"uniformed players and large cloth objects", BuildDeformable},
	{"Explosions", "real-time strategy",
		"an army with cannons fighting in an urban environment", BuildExplosions},
	{"Highspeed", "action",
		"cars crashing into walls, high-speed rockets hitting buildings", BuildHighspeed},
	{"Mix", "all",
		"all features combined: terrain, cloth, fracture, explosions", BuildMix},
}

// ByName finds a benchmark by its name.
func ByName(name string) (Benchmark, bool) {
	for _, b := range All {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

func count(base int, scale float64) int {
	n := int(math.Round(float64(base) * scale))
	if n < 1 {
		n = 1
	}
	return n
}

// BuildPeriodic: 30 humanoids with 3 groups of 5, 3 groups of 3, and 3
// groups of 2, all members of each group in combat with one another
// (continuous periodic contact).
func BuildPeriodic(scale float64) *world.World {
	w := world.New()
	b := newBuilder(w, 1)
	w.AddStatic(geom.Plane{Normal: m3.V(0, 1, 0), Offset: 0}, m3.Zero, m3.QIdent)
	groupSizes := []int{5, 5, 5, 3, 3, 3, 2, 2, 2}
	total := 0
	for _, g := range groupSizes {
		total += g
	}
	want := count(30, scale)
	placed := 0
	gi := 0
	for placed < want {
		size := groupSizes[gi%len(groupSizes)]
		if placed+size > want {
			size = want - placed
		}
		center := m3.V(float64(gi%3)*8, 0, float64(gi/3)*8)
		for k := 0; k < size; k++ {
			ang := 2 * math.Pi * float64(k) / float64(size)
			pos := center.Add(m3.V(math.Cos(ang)*0.8, 0, math.Sin(ang)*0.8))
			h := b.humanoid(pos, false)
			// Lunge toward the group center: periodic contact.
			for _, bi := range h.Bodies {
				w.Bodies[bi].LinVel = center.Sub(pos).Norm().Scale(1.5)
			}
		}
		placed += size
		gi++
	}
	return w
}

// BuildRagdoll: 30 ragdolls all falling away from each other after
// projectile impacts.
func BuildRagdoll(scale float64) *world.World {
	w := world.New()
	b := newBuilder(w, 2)
	w.AddStatic(geom.Plane{Normal: m3.V(0, 1, 0), Offset: 0}, m3.Zero, m3.QIdent)
	n := count(30, scale)
	for k := 0; k < n; k++ {
		ang := 2 * math.Pi * float64(k) / float64(n)
		pos := m3.V(math.Cos(ang)*3, 1.2, math.Sin(ang)*3)
		h := b.humanoid(pos, false)
		out := m3.V(math.Cos(ang), 0.4, math.Sin(ang)).Norm()
		for _, bi := range h.Bodies {
			w.Bodies[bi].LinVel = out.Scale(4)
			w.Bodies[bi].AngVel = m3.V(b.rng.Float64()-0.5, b.rng.Float64()-0.5, 0).Scale(3)
		}
	}
	return w
}

// BuildContinuous: a rally race — 30 cars over heightfield and trimesh
// terrain between many static obstacles (continuous contact).
func BuildContinuous(scale float64) *world.World {
	w := world.New()
	b := newBuilder(w, 3)
	hf := b.terrain(m3.V(-10, 0, -10), 48, 1.5, 0.4)
	b.meshPatch(m3.V(-10, 0, 62), 24, 1.5)
	b.obstacles(count(1650, scale), 55, m3.V(-5, 0.5, -5))
	n := count(30, scale)
	for k := 0; k < n; k++ {
		x, z := float64(k%6)*5, float64(k/6)*7
		ground := hf.HeightAt(x+10, z+10) // terrain origin is (-10,0,-10)
		c := b.car(m3.V(x, ground+0.02, z), false)
		b.drive(c, m3.V(0, 0, 1), 11)
	}
	return w
}

// BuildBreakable: three areas each enclosed by three prefractured walls
// with two bridges; 30 humans in groups of 10; six vehicles ram the
// walls and explode on contact.
func BuildBreakable(scale float64) *world.World {
	w := world.New()
	w.EnableSleep = true
	b := newBuilder(w, 4)
	w.AddStatic(geom.Plane{Normal: m3.V(0, 1, 0), Offset: 0}, m3.Zero, m3.QIdent)
	areas := count(3, math.Sqrt(scale))
	wallBricksX := count(13, math.Sqrt(scale))
	wallBricksY := count(9, math.Sqrt(scale))
	for a := 0; a < areas; a++ {
		base := m3.V(float64(a)*30, 0, 0)
		b.wall(base, m3.V(1, 0, 0), wallBricksX, wallBricksY, true)
		b.wall(base, m3.V(0, 0, 1), wallBricksX, wallBricksY, true)
		b.wall(base.Add(m3.V(13, 0, 13)), m3.V(-1, 0, 0), wallBricksX, wallBricksY, true)
		b.bridge(base.Add(m3.V(2, 2.5, 16)), base.Add(m3.V(10, 2.5, 16)), 8)
		b.bridge(base.Add(m3.V(2, 2.5, 19)), base.Add(m3.V(10, 2.5, 19)), 8)
		// Humans scattered in a group of 10 inside the area.
		for k := 0; k < count(10, scale); k++ {
			pos := base.Add(m3.V(3+float64(k%5)*1.5, 0, 3+float64(k/5)*1.5))
			b.humanoid(pos, true)
		}
		// Two ramming vehicles per area, exploding on contact.
		for v := 0; v < 2; v++ {
			cpos := base.Add(m3.V(6+float64(v)*2, 0, -2.6))
			c := b.car(cpos, true)
			b.drive(c, m3.V(0, 0, 1), 14)
			w.MarkExplosive(c.Geom, world.ExplosiveSpec{Radius: 4, Duration: 0.06, Impulse: 60})
		}
		// Cannonballs already in flight, hitting the walls within the
		// measured frames (~0.15 s at 28 m/s from ~4 m out).
		for s := 0; s < 3; s++ {
			from := base.Add(m3.V(float64(s)*4+1, 3.0, -4.2))
			target := base.Add(m3.V(float64(s)*4+2, 1.5, 0.3))
			b.projectile(from, target, 28, &world.ExplosiveSpec{Radius: 3.5, Duration: 0.06, Impulse: 50})
		}
	}
	return w
}

// BuildDeformable: 30 uniformed players (small cloth attached to each)
// and 2 large cloth objects each in contact with one player.
func BuildDeformable(scale float64) *world.World {
	w := world.New()
	b := newBuilder(w, 5)
	w.AddStatic(geom.Plane{Normal: m3.V(0, 1, 0), Offset: 0}, m3.Zero, m3.QIdent)
	n := count(30, scale)
	var first, second *Humanoid
	for k := 0; k < n; k++ {
		pos := m3.V(float64(k%6)*2.5, 0, float64(k/6)*2.5)
		h := b.humanoid(pos, false)
		b.smallClothOn(h)
		if k == 0 {
			first = h
		}
		if k == 1 {
			second = h
		}
		// Gentle jostling keeps contacts flowing.
		for _, bi := range h.Bodies {
			w.Bodies[bi].LinVel = m3.V(b.rng.Float64()-0.5, 0, b.rng.Float64()-0.5)
		}
	}
	// Two large cloths draped over the first two players.
	if first != nil {
		p := w.Bodies[first.Pelvis].Pos
		b.largeCloth(m3.V(p.X-1.0, 2.0, p.Z-1.0), false)
	}
	if second != nil {
		p := w.Bodies[second.Pelvis].Pos
		b.largeCloth(m3.V(p.X-1.0, 2.1, p.Z-1.0), false)
	}
	return w
}

// BuildExplosions: ten walled areas, 50 roaming vehicles, ten cannons
// shooting exploding projectiles. No breakable joints or prefracture —
// pure blast and contact load.
func BuildExplosions(scale float64) *world.World {
	w := world.New()
	w.EnableSleep = true
	b := newBuilder(w, 6)
	w.AddStatic(geom.Plane{Normal: m3.V(0, 1, 0), Offset: 0}, m3.Zero, m3.QIdent)
	areas := count(10, math.Sqrt(scale))
	bricksX := count(11, math.Sqrt(scale))
	bricksY := count(10, math.Sqrt(scale))
	for a := 0; a < areas; a++ {
		base := m3.V(float64(a%5)*26, 0, float64(a/5)*26)
		b.wall(base, m3.V(1, 0, 0), bricksX, bricksY, false)
		b.wall(base, m3.V(0, 0, 1), bricksX, bricksY, false)
		b.wall(base.Add(m3.V(11, 0, 11)), m3.V(-1, 0, 0), bricksX, bricksY, false)
	}
	nveh := count(50, scale)
	for v := 0; v < nveh; v++ {
		pos := m3.V(float64(v%10)*10+3, 0, float64(v/10)*10+16)
		c := b.car(pos, false)
		dir := m3.V(math.Cos(float64(v)), 0, math.Sin(float64(v))).Norm()
		b.drive(c, dir, 8)
	}
	ncan := count(10, scale)
	for s := 0; s < ncan; s++ {
		// Shells already in flight, ~4 m from their impact points.
		from := m3.V(float64(s)*12+2, 2.6, 0.6)
		target := m3.V(float64(s)*12+4, 1.2, 4.2)
		b.projectile(from, target, 26, &world.ExplosiveSpec{Radius: 4, Duration: 0.06, Impulse: 70})
		b.projectile(from.Add(m3.V(1, 0.5, -1.5)), target, 26,
			&world.ExplosiveSpec{Radius: 4, Duration: 0.06, Impulse: 70})
	}
	return w
}

// BuildHighspeed: ten buildings, 20 moving cars, ten cannons shooting
// high-speed projectiles — no explosions, just the complexity of
// detecting high-speed impacts.
func BuildHighspeed(scale float64) *world.World {
	w := world.New()
	w.EnableSleep = true
	b := newBuilder(w, 7)
	w.AddStatic(geom.Plane{Normal: m3.V(0, 1, 0), Offset: 0}, m3.Zero, m3.QIdent)
	nb := count(10, math.Sqrt(scale))
	floors := count(20, math.Sqrt(scale))
	for k := 0; k < nb; k++ {
		b.building(m3.V(float64(k%5)*12, 0, float64(k/5)*12), floors, false)
	}
	ncar := count(20, scale)
	for v := 0; v < ncar; v++ {
		pos := m3.V(float64(v%5)*11+4, 0, float64(v/5)*11-8)
		c := b.car(pos, false)
		b.drive(c, m3.V(0, 0, 1), 22) // crashing speed
	}
	ncan := count(10, scale)
	for s := 0; s < ncan; s++ {
		// High-speed rockets ~12 m out hit within ~0.13 s at 90 m/s.
		from := m3.V(float64(s%5)*12+1, 5+float64(s%3), -12)
		target := m3.V(float64(s%5)*12, 4, float64(s/5)*12)
		b.projectile(from, target, 90, nil) // high-speed rocket
		b.projectile(from.Add(m3.V(0.5, 0.5, -5)), target, 90, nil)
	}
	return w
}

// BuildMix: all features combined — heightfield terrain, 3 prefractured
// buildings with large cloths over their openings, 6 bridges, 30
// cloth-draped humanoids, 6 vehicles, breakable joints and exploding
// projectiles.
func BuildMix(scale float64) *world.World {
	w := world.New()
	w.EnableSleep = true
	b := newBuilder(w, 8)
	b.terrain(m3.V(-12, -0.2, -12), 40, 1.6, 0.25)
	nb := count(3, scale)
	for k := 0; k < nb; k++ {
		base := m3.V(float64(k)*14, 0.3, 0)
		b.building(base, count(22, math.Sqrt(scale)), true)
		// A large cloth covering the building opening.
		b.largeCloth(base.Add(m3.V(-0.9, float64(count(22, math.Sqrt(scale)))*0.6+0.4, -0.9)), true)
	}
	for k := 0; k < count(6, scale); k++ {
		a := m3.V(float64(k)*8, 2.2, 10)
		c := a.Add(m3.V(6, 0, 0))
		b.bridge(a, c, 8)
	}
	for k := 0; k < count(30, scale); k++ {
		pos := m3.V(float64(k%6)*2.5, 0.3, 14+float64(k/6)*2.5)
		h := b.humanoid(pos, true)
		b.smallClothOn(h)
	}
	for v := 0; v < count(6, scale); v++ {
		cpos := m3.V(float64(v)*6, 0.4, 24)
		c := b.car(cpos, true)
		b.drive(c, m3.V(0, 0, -1), 12)
		w.MarkExplosive(c.Geom, world.ExplosiveSpec{Radius: 4, Duration: 0.06, Impulse: 60})
	}
	for s := 0; s < count(6, scale); s++ {
		from := m3.V(float64(s%3)*14+1, 5, -4.5)
		target := m3.V(float64(s%3)*14, 3, 0)
		b.projectile(from, target, 30, &world.ExplosiveSpec{Radius: 3.5, Duration: 0.06, Impulse: 55})
	}
	return w
}

// BuildWallRubble is the steady-state stepping scene of the repo's
// BenchmarkStep: a brick wall stacked on a ground plane with a field of
// rubble (spheres and boxes) settling around it. It is deliberately not
// part of All — it is a measurement scene, not a paper benchmark. At
// steady state every step exercises broad phase, narrow phase, island
// creation and island processing with a stable contact topology and no
// event paths (no explosives, fracture or cloth), so steady-state
// stepping stays allocation-free.
func BuildWallRubble() *world.World {
	w := world.New()
	w.AddStatic(geom.Plane{Normal: m3.V(0, 1, 0)}, m3.Zero, m3.QIdent)
	// Brick wall: 8 columns x 6 rows.
	for row := 0; row < 6; row++ {
		for col := 0; col < 8; col++ {
			x := float64(col)*1.02 + 0.51*float64(row%2)
			y := 0.5 + float64(row)*1.01
			w.AddBody(geom.Box{Half: m3.V(0.5, 0.5, 0.25)}, 4.0, m3.V(x, y, 0), m3.QIdent, 0, 0)
		}
	}
	// Rubble field in front of the wall.
	for i := 0; i < 40; i++ {
		x := float64(i%10)*0.9 - 0.5
		z := 2 + float64(i/10)*0.9
		if i%2 == 0 {
			w.AddBody(geom.Sphere{R: 0.3}, 1.0, m3.V(x, 0.3, z), m3.QIdent, 0, 0)
		} else {
			w.AddBody(geom.Box{Half: m3.V(0.3, 0.2, 0.3)}, 1.5, m3.V(x, 0.2, z), m3.QIdent, 0, 0)
		}
	}
	return w
}
