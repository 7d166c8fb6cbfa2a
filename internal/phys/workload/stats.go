package workload

import (
	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// Composition classifies a scene the way Table 4 reports it: its geoms
// as static, dynamic or prefractured (cloth proxies and blast volumes
// are none of these), its cloths and their vertices, and its joints.
func Composition(w *world.World) (static, dynamic, prefractured, cloths, clothVerts, joints int) {
	for _, g := range w.Geoms {
		switch {
		case g.Flags.Has(geom.FlagCloth) || g.Flags.Has(geom.FlagBlast):
		case g.Flags.Has(geom.FlagDebris):
			prefractured++
		case g.Flags.Has(geom.FlagStatic):
			static++
		default:
			dynamic++
		}
	}
	for _, c := range w.Cloths {
		clothVerts += c.NumVertices()
	}
	return static, dynamic, prefractured, len(w.Cloths), clothVerts, len(w.Joints)
}
