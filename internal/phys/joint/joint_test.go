package joint

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/body"
	"github.com/parallax-arch/parallax/internal/phys/enc"
	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/m3"
)

var p = Params{Dt: 0.01, ERP: 0.2, CFM: 1e-9}

func twoBodies() []*body.Body {
	a := body.New(1, geom.Sphere{R: 0.5}.Inertia(1))
	a.ID = 0
	a.Pos = m3.V(-1, 0, 0)
	b := body.New(1, geom.Sphere{R: 0.5}.Inertia(1))
	b.ID = 1
	b.Pos = m3.V(1, 0, 0)
	return []*body.Body{a, b}
}

// rowVelocity evaluates J*v for a row.
func rowVelocity(bs []*body.Body, r Row) float64 {
	v := 0.0
	if r.BodyA >= 0 {
		v += r.JLinA.Dot(bs[r.BodyA].LinVel) + r.JAngA.Dot(bs[r.BodyA].AngVel)
	}
	if r.BodyB >= 0 {
		v += r.JLinB.Dot(bs[r.BodyB].LinVel) + r.JAngB.Dot(bs[r.BodyB].AngVel)
	}
	return v
}

func TestBallRowsSatisfiedAtRest(t *testing.T) {
	bs := twoBodies()
	j := NewBall(bs, 0, 1, m3.V(0, 0, 0))
	rows := j.Rows(bs, p, 0, nil)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		// At rest with zero positional error, both J*v and RHS are 0.
		if rowVelocity(bs, r) != 0 {
			t.Errorf("row %d: nonzero velocity at rest", i)
		}
		if math.Abs(r.RHS) > 1e-12 {
			t.Errorf("row %d: RHS = %v with no positional error", i, r.RHS)
		}
		if r.Joint != 0 {
			t.Errorf("row %d: joint id = %d", i, r.Joint)
		}
	}
}

func TestBallRHSCorrectsPositionalError(t *testing.T) {
	bs := twoBodies()
	j := NewBall(bs, 0, 1, m3.V(0, 0, 0))
	// Drift body B so the anchors separate by 0.1 along +x.
	bs[1].Pos = bs[1].Pos.Add(m3.V(0.1, 0, 0))
	rows := j.Rows(bs, p, 0, nil)
	// err = anchorA - anchorB = (-0.1, 0, 0); the x row's RHS should pull
	// B back toward A: RHS = ERP/Dt * err.x = -2.
	if math.Abs(rows[0].RHS-(-2.0)) > 1e-9 {
		t.Errorf("x-row RHS = %v, want -2", rows[0].RHS)
	}
}

func TestRelativeVelocityConvention(t *testing.T) {
	// J*v must equal the relative anchor velocity projected on the row
	// direction (B minus A).
	bs := twoBodies()
	j := NewBall(bs, 0, 1, m3.V(0, 0, 0))
	bs[0].LinVel = m3.V(1, 2, 3)
	bs[1].LinVel = m3.V(-1, 5, 0)
	rows := j.Rows(bs, p, 0, nil)
	rel := bs[1].VelocityAt(m3.Zero).Sub(bs[0].VelocityAt(m3.Zero))
	want := [3]float64{rel.X, rel.Y, rel.Z}
	for i, r := range rows {
		if math.Abs(rowVelocity(bs, r)-want[i]) > 1e-9 {
			t.Errorf("row %d: J*v = %v, want %v", i, rowVelocity(bs, r), want[i])
		}
	}
}

func TestWorldAttachment(t *testing.T) {
	bs := twoBodies()
	j := NewBall(bs, 0, -1, m3.V(-1, 1, 0))
	a, b := j.Bodies()
	if a != 0 || b != -1 {
		t.Errorf("Bodies = %d,%d", a, b)
	}
	rows := j.Rows(bs, p, 0, nil)
	for i, r := range rows {
		if r.BodyB != -1 {
			t.Errorf("row %d should reference the world", i)
		}
		if r.JLinB != m3.Zero && r.BodyB == -1 {
			// Jacobian halves for the world side are ignored by the
			// solver, but we still produce them consistently.
			break
		}
		_ = i
	}
}

func TestHingeAxisPreserved(t *testing.T) {
	bs := twoBodies()
	axis := m3.V(0, 0, 1)
	j := NewHinge(bs, 0, 1, m3.Zero, axis)
	// Relative rotation about the hinge axis must be invisible to the
	// angular rows.
	bs[0].AngVel = m3.V(0, 0, 2)
	bs[1].AngVel = m3.V(0, 0, 7)
	rows := j.Rows(bs, p, 0, nil)
	for i := 3; i < 5; i++ {
		if v := rowVelocity(bs, rows[i]); math.Abs(v) > 1e-9 {
			t.Errorf("angular row %d sees on-axis spin: %v", i, v)
		}
	}
	// Off-axis relative rotation must be visible.
	bs[1].AngVel = m3.V(3, 0, 0)
	rows = j.Rows(bs, p, 0, nil)
	seen := math.Abs(rowVelocity(bs, rows[3])) + math.Abs(rowVelocity(bs, rows[4]))
	if seen < 1e-9 {
		t.Error("angular rows blind to off-axis spin")
	}
}

func TestHingeSoftAnchorCFM(t *testing.T) {
	bs := twoBodies()
	j := NewHinge(bs, 0, 1, m3.Zero, m3.V(0, 0, 1))
	j.SoftAnchor = 0.5
	rows := j.Rows(bs, p, 0, nil)
	for i := 0; i < 3; i++ {
		if rows[i].CFM < 0.5 {
			t.Errorf("linear row %d CFM = %v, want soft", i, rows[i].CFM)
		}
	}
	for i := 3; i < 5; i++ {
		if rows[i].CFM >= 0.5 {
			t.Errorf("angular row %d should not be softened", i)
		}
	}
}

func TestSliderRotationLock(t *testing.T) {
	bs := twoBodies()
	j := NewSlider(bs, 0, 1, m3.Zero, m3.V(1, 0, 0))
	bs[1].AngVel = m3.V(1, 2, 3)
	rows := j.Rows(bs, p, 0, nil)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Three angular rows see the relative spin component-wise.
	total := 0.0
	for i := 2; i < 5; i++ {
		total += math.Abs(rowVelocity(bs, rows[i]))
	}
	if math.Abs(total-6) > 1e-9 {
		t.Errorf("angular rows see |w| = %v, want 6", total)
	}
	// Axial translation is free: no row responds to it.
	bs[1].AngVel = m3.Zero
	bs[1].LinVel = m3.V(5, 0, 0)
	rows = j.Rows(bs, p, 0, nil)
	for i, r := range rows {
		if v := rowVelocity(bs, r); math.Abs(v) > 1e-9 {
			t.Errorf("row %d resists axial motion: %v", i, v)
		}
	}
}

func TestFixedCapturesRelativePose(t *testing.T) {
	bs := twoBodies()
	bs[1].Rot = m3.QFromAxisAngle(m3.V(0, 1, 0), 0.7)
	j := NewFixed(bs, 0, 1, m3.Zero)
	// At the captured pose, all six rows are satisfied.
	rows := j.Rows(bs, p, 0, nil)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if math.Abs(r.RHS) > 1e-9 {
			t.Errorf("row %d RHS = %v at the captured pose", i, r.RHS)
		}
	}
	// Rotating B further produces an angular error signal.
	bs[1].Rot = bs[1].Rot.Mul(m3.QFromAxisAngle(m3.V(0, 1, 0), 0.2))
	rows = j.Rows(bs, p, 0, nil)
	errSum := 0.0
	for i := 3; i < 6; i++ {
		errSum += math.Abs(rows[i].RHS)
	}
	if errSum < 1e-6 {
		t.Error("fixed joint blind to relative rotation drift")
	}
}

func TestContactRowsStructure(t *testing.T) {
	bs := twoBodies()
	n := m3.V(0, 1, 0)
	rows := ContactRows(bs, 0, 1, m3.Zero, n, 0.02, DefaultMaterial, p, 10, nil)
	if len(rows) != RowsPerContact {
		t.Fatalf("rows = %d, want %d", len(rows), RowsPerContact)
	}
	normal := rows[0]
	if normal.Lo != 0 || !math.IsInf(normal.Hi, 1) {
		t.Errorf("normal row bounds [%v, %v], want [0, +inf)", normal.Lo, normal.Hi)
	}
	if normal.RHS <= 0 {
		t.Errorf("penetrating contact should have positive bias: %v", normal.RHS)
	}
	for i := 1; i < 3; i++ {
		fr := rows[i]
		if fr.FrictionOf != 10 {
			t.Errorf("friction row %d references row %d, want 10", i, fr.FrictionOf)
		}
		if fr.Mu != DefaultMaterial.Mu {
			t.Errorf("friction row %d mu = %v", i, fr.Mu)
		}
		// Friction directions orthogonal to the normal and each other.
		if math.Abs(fr.JLinB.Dot(n)) > 1e-9 {
			t.Errorf("friction row %d not tangent", i)
		}
	}
	if math.Abs(rows[1].JLinB.Dot(rows[2].JLinB)) > 1e-9 {
		t.Error("friction rows not orthogonal")
	}
}

func TestContactRestitutionThreshold(t *testing.T) {
	bs := twoBodies()
	mat := ContactMaterial{Mu: 0, Restitution: 0.9, RestitutionThreshold: 0.5}
	// Slow approach: no bounce term, only Baumgarte.
	bs[1].LinVel = m3.V(0, -0.2, 0)
	slow := ContactRows(bs, 0, 1, m3.Zero, m3.V(0, 1, 0), 0.01, mat, p, 0, nil)
	// Fast approach: bounce dominates.
	bs[1].LinVel = m3.V(0, -10, 0)
	fast := ContactRows(bs, 0, 1, m3.Zero, m3.V(0, 1, 0), 0.01, mat, p, 0, nil)
	if fast[0].RHS <= slow[0].RHS {
		t.Errorf("fast impact RHS %v should exceed slow %v", fast[0].RHS, slow[0].RHS)
	}
	if math.Abs(fast[0].RHS-9) > 0.5 {
		t.Errorf("bounce target = %v, want ~9 (0.9 x 10)", fast[0].RHS)
	}
}

func TestNumRowsConsistency(t *testing.T) {
	bs := twoBodies()
	js := []Joint{
		NewBall(bs, 0, 1, m3.Zero),
		NewHinge(bs, 0, 1, m3.Zero, m3.V(0, 0, 1)),
		NewSlider(bs, 0, 1, m3.Zero, m3.V(1, 0, 0)),
		NewFixed(bs, 0, 1, m3.Zero),
	}
	want := []int{3, 5, 5, 6}
	for i, j := range js {
		if j.NumRows() != want[i] {
			t.Errorf("joint %d NumRows = %d, want %d", i, j.NumRows(), want[i])
		}
		rows := j.Rows(bs, p, int32(i), nil)
		if len(rows) != j.NumRows() {
			t.Errorf("joint %d: Rows produced %d, NumRows says %d", i, len(rows), j.NumRows())
		}
	}
}

func TestBreakableDelegation(t *testing.T) {
	bs := twoBodies()
	br := NewBreakable(NewHinge(bs, 0, 1, m3.Zero, m3.V(0, 0, 1)), 100, 0)
	a, b := br.Bodies()
	if a != 0 || b != 1 {
		t.Errorf("breakable Bodies = %d,%d", a, b)
	}
	if br.NumRows() != 5 {
		t.Errorf("breakable NumRows = %d", br.NumRows())
	}
	if got := len(br.Rows(bs, p, 0, nil)); got != 5 {
		t.Errorf("breakable Rows = %d", got)
	}
	// Breaking is idempotent and sticky.
	br.Broken = true
	if br.ApplyLoad(1e9) {
		t.Error("already-broken joint reported breaking again")
	}
}

// TestCodeJointStopsAtNestedBreakable: a Breakable inside a Breakable
// fails where the second tag is read. The decoder used to recurse first
// and check on the way back — a quarter of a KiB of stack per input
// byte, so a few MiB of this tag overflowed the stack, which no recover
// catches.
func TestCodeJointStopsAtNestedBreakable(t *testing.T) {
	in := bytes.Repeat([]byte{tagBreakable}, 1<<20)
	c := enc.Load(in)
	var j Joint
	CodeJoint(c, &j, 4)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "nested breakable joint") {
		t.Fatalf("Err = %v, want the nesting named", err)
	}

	c = enc.Store(0)
	j = NewBreakable(NewBreakable(&Ball{}, 0, 1), 0, 1)
	if CodeJoint(c, &j, 4); c.Err() == nil {
		t.Fatal("storing a nested breakable did not fail")
	}
}
