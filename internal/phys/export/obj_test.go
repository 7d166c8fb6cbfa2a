package export

import (
	"bufio"
	"fmt"
	"strings"
	"testing"

	"github.com/parallax-arch/parallax/internal/phys/cloth"
	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/m3"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

func sceneForExport() *world.World {
	w := world.New()
	w.AddStatic(geom.Plane{Normal: m3.V(0, 1, 0)}, m3.Zero, m3.QIdent)
	w.AddBody(geom.Sphere{R: 0.5}, 1, m3.V(0, 1, 0), m3.QIdent, 0, 0)
	w.AddBody(geom.Box{Half: m3.V(0.3, 0.3, 0.3)}, 1, m3.V(2, 1, 0), m3.QIdent, 0, 0)
	w.AddBody(geom.Capsule{R: 0.2, HalfLen: 0.4}, 1, m3.V(4, 1, 0), m3.QIdent, 0, 0)
	w.AddBody(geom.BoxHull(m3.V(0.3, 0.3, 0.3)), 1, m3.V(6, 1, 0), m3.QIdent, 0, 0)
	hs := make([]float64, 9)
	w.AddStatic(geom.NewHeightField(3, 3, 1, 1, hs), m3.V(8, 0, 0), m3.QIdent)
	w.AddCloth(cloth.NewGrid(4, 4, 0.1, m3.V(0, 2, 0), 0.2))
	return w
}

// parseOBJ validates the file structure and returns vertex/face counts,
// checking every face index is in range.
func parseOBJ(t *testing.T, s string) (verts, faces int) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "v "):
			var x, y, z float64
			if _, err := fmt.Sscanf(line, "v %f %f %f", &x, &y, &z); err != nil {
				t.Fatalf("bad vertex line %q: %v", line, err)
			}
			verts++
		case strings.HasPrefix(line, "f "):
			var a, b, c int
			if _, err := fmt.Sscanf(line, "f %d %d %d", &a, &b, &c); err != nil {
				t.Fatalf("bad face line %q: %v", line, err)
			}
			for _, i := range [3]int{a, b, c} {
				if i < 1 || i > verts {
					t.Fatalf("face index %d out of range (verts so far %d)", i, verts)
				}
			}
			faces++
		}
	}
	return verts, faces
}

func TestOBJExportAllShapes(t *testing.T) {
	w := sceneForExport()
	var sb strings.Builder
	if err := OBJ(&sb, w); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	verts, faces := parseOBJ(t, out)
	if verts < 100 || faces < 100 {
		t.Errorf("export too small: %d verts, %d faces", verts, faces)
	}
	for _, name := range []string{"sphere", "box", "capsule", "hull", "plane", "heightfield", "cloth_0"} {
		if !strings.Contains(out, name) {
			t.Errorf("export missing object %q", name)
		}
	}
}

func TestOBJAfterSimulation(t *testing.T) {
	// Export stays valid after the scene has evolved (rotated boxes,
	// moved cloth).
	w := sceneForExport()
	for i := 0; i < 60; i++ {
		w.Step()
	}
	var sb strings.Builder
	if err := OBJ(&sb, w); err != nil {
		t.Fatal(err)
	}
	parseOBJ(t, sb.String())
}
