// Package parallax is the public API of the ParallAX reproduction: a
// complete real-time physics engine (rigid bodies, joints, breakables,
// prefracture, explosions, cloth) in the style of the Open Dynamics
// Engine, the paper's eight forward-looking benchmarks, and the
// trace-driven architecture models (caches, branch prediction,
// out-of-order core timing, mesh and off-chip interconnects) that
// reproduce the paper's design-space study.
//
// Quick start:
//
//	w := parallax.NewWorld()
//	w.AddStatic(parallax.Plane{Normal: parallax.V(0, 1, 0)}, parallax.V(0, 0, 0), parallax.QIdent)
//	ball, _ := w.AddBody(parallax.Sphere{R: 0.5}, 1.0, parallax.V(0, 5, 0), parallax.QIdent, 0, 0)
//	for i := 0; i < 300; i++ {
//	    w.Step()
//	}
//	fmt.Println(w.Bodies[ball].Pos)
//
// To run the paper's experiments:
//
//	suite := parallax.NewSuite(1.0)
//	parallax.RunExperiment(suite, "fig10b", os.Stdout)
package parallax

import (
	"fmt"
	"io"
	"net/http"

	"github.com/parallax-arch/parallax/internal/arch/cpu"
	"github.com/parallax-arch/parallax/internal/arch/link"
	archpx "github.com/parallax-arch/parallax/internal/arch/parallax"
	"github.com/parallax-arch/parallax/internal/exp"
	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/cloth"
	"github.com/parallax-arch/parallax/internal/phys/export"
	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/joint"
	"github.com/parallax-arch/parallax/internal/phys/m3"
	"github.com/parallax-arch/parallax/internal/phys/narrowphase"
	"github.com/parallax-arch/parallax/internal/phys/workload"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// ---- math re-exports ----

// Vec is a 3-vector.
type Vec = m3.Vec

// Quat is a rotation quaternion.
type Quat = m3.Quat

// V builds a vector.
func V(x, y, z float64) Vec { return m3.V(x, y, z) }

// QIdent is the identity rotation.
var QIdent = m3.QIdent

// QFromAxisAngle builds a rotation of angle radians about axis.
func QFromAxisAngle(axis Vec, angle float64) Quat { return m3.QFromAxisAngle(axis, angle) }

// ---- shape re-exports ----

// Shape is the collision-shape interface all shapes implement.
type Shape = geom.Shape

// Sphere, Box, Capsule and Plane are the convex collision shapes;
// heightfields and triangle meshes are built with NewHeightField and
// NewTriMesh.
type (
	Sphere  = geom.Sphere
	Box     = geom.Box
	Capsule = geom.Capsule
	Plane   = geom.Plane
	Tri     = geom.Tri
)

// NewHeightField builds terrain from a row-major height grid.
func NewHeightField(nx, nz int, cellX, cellZ float64, heights []float64) *geom.HeightField {
	return geom.NewHeightField(nx, nz, cellX, cellZ, heights)
}

// NewTriMesh builds a static triangle-mesh shape.
func NewTriMesh(verts []Vec, tris []Tri) *geom.TriMesh {
	return geom.NewTriMesh(verts, tris)
}

// NewHull builds a convex-hull shape from vertices and a triangulated
// surface; hulls collide via GJK/EPA and get exact mass properties from
// the surface integrals.
func NewHull(verts []Vec, faces []Tri) *geom.Hull {
	return geom.NewHull(verts, faces)
}

// BoxHull builds the convex hull of a box (handy for debris and tests).
func BoxHull(half Vec) *geom.Hull { return geom.BoxHull(half) }

// ExportOBJ writes the world's current geometry to out as a Wavefront
// OBJ file for inspection in any 3D viewer.
func ExportOBJ(out io.Writer, w *World) error {
	return export.OBJ(out, w)
}

// ---- engine re-exports ----

// World is the simulation container; see NewWorld.
type World = world.World

// ExplosiveSpec configures an explosive geom.
type ExplosiveSpec = world.ExplosiveSpec

// StepProfile is the per-step instrumentation record. Its Islands and
// ClothVerts slices are backed by World-owned scratch storage that the
// next Step overwrites: copy them — or aggregate through
// FrameProfile.Add, which deep-copies — before stepping again if the
// record must outlive the step. This aliasing is what lets steady-state
// stepping run allocation-free.
type StepProfile = world.StepProfile

// FrameProfile aggregates the StepProfiles of one rendered frame;
// FrameProfile.Add deep-copies the scratch-backed slices so frame
// records are safe to retain indefinitely.
type FrameProfile = world.FrameProfile

// NewWorld returns an empty world with the paper's defaults (0.01 s
// steps, 20 solver iterations, sweep-and-prune broad phase).
func NewWorld() *World { return world.New() }

// RayHit is a ray-query result.
type RayHit = narrowphase.RayHit

// Cloth is a position-based soft body.
type Cloth = cloth.Cloth

// NewClothGrid builds an nx-by-nz cloth with the given spacing, origin
// and total mass.
func NewClothGrid(nx, nz int, spacing float64, origin Vec, mass float64) *Cloth {
	return cloth.NewGrid(nx, nz, spacing, origin, mass)
}

// Joint constructors. Bodies are world body indices; -1 attaches to the
// static world.
var (
	NewBall   = joint.NewBall
	NewHinge  = joint.NewHinge
	NewSlider = joint.NewSlider
	NewFixed  = joint.NewFixed
)

// NewBreakable wraps a joint with break thresholds.
func NewBreakable(j joint.Joint, threshold, fatigueLimit float64) *joint.Breakable {
	return joint.NewBreakable(j, threshold, fatigueLimit)
}

// ---- benchmark suite ----

// Benchmark is one scene of the paper's suite.
type Benchmark = workload.Benchmark

// Benchmarks returns the eight benchmarks in the paper's order.
func Benchmarks() []Benchmark { return workload.All }

// BuildBenchmark constructs a named benchmark at the given scale
// (1.0 = the paper's scene sizes).
func BuildBenchmark(name string, scale float64) (*World, error) {
	b, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("parallax: unknown benchmark %q", name)
	}
	return b.Build(scale), nil
}

// ---- architecture models ----

// Workload is a captured benchmark ready for architecture evaluation.
type Workload = archpx.Workload

// System is a full ParallAX machine configuration.
type System = archpx.System

// CoreConfig is a core timing configuration (Desktop, Console, Shader,
// Limit, CGCore).
type CoreConfig = cpu.Config

// The fine-grain core design points (paper Table 6).
var (
	Desktop = cpu.Desktop
	Console = cpu.Console
	Shader  = cpu.Shader
	Limit   = cpu.Limit
)

// Interconnect kinds for the FG pool.
const (
	OnChip = link.OnChip
	HTX    = link.HTX
	PCIe   = link.PCIe
)

// Capture runs a world and captures its worst measured frame for the
// architecture models.
func Capture(name string, w *World, warmFrames, measureFrames int) *Workload {
	return archpx.Capture(name, w, warmFrames, measureFrames)
}

// ReferenceSystem returns the paper's proposed configuration: 4 CG
// cores, 12MB partitioned L2, 150 shader-class FG cores on-chip.
func ReferenceSystem() System { return archpx.Reference() }

// ---- observability ----

// Tracer is the zero-allocation span tracer (see DESIGN.md
// "Observability"): attach one to a World with World.SetObs and export
// the spans as Chrome trace-event JSON with Tracer.WriteTrace — the
// file loads directly in Perfetto (ui.perfetto.dev).
type Tracer = obs.Tracer

// Metrics is the typed metrics registry paired with the tracer; its
// Prometheus exposition (the /metrics body ObsHandler serves) is sorted
// and deterministic across thread counts.
type Metrics = obs.Registry

// NewTracer returns an enabled span tracer. A nil *Tracer disables
// tracing at zero cost.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// Series is the per-step telemetry ring (kinetic energy, solver
// residual, per-phase durations, ...): attach one to a World with
// World.SetSeries. Recording is allocation-free; export the resident
// window with Series.WriteJSON or serve it live via ObsHandler.
type Series = obs.Series

// Health is the deterministic per-step anomaly detector (NaN state,
// energy spike, residual blowup): attach with
// World.SetHealth, poll with Health.Tripped/Status.
type Health = obs.Health

// NewSeries returns a series ring holding at least capacity steps
// (rounded up to a power of two, minimum 64).
func NewSeries(capacity int) *Series { return obs.NewSeries(capacity) }

// NewHealth returns an anomaly detector with default thresholds.
func NewHealth() *Health { return obs.NewHealth() }

// ObsHandler returns the live-telemetry HTTP handler: /metrics
// (Prometheus text exposition), /health, /trace, /series.json. Any
// argument may be nil.
func ObsHandler(tr *Tracer, reg *Metrics, s *Series, h *Health) http.Handler {
	return obs.Handler(tr, reg, s, h)
}

// ---- experiments ----

// Suite is the captured eight-benchmark suite for experiments.
type Suite = exp.Suite

// NewSuite captures all eight benchmarks at the given scale.
func NewSuite(scale float64) *Suite { return exp.NewSuite(scale) }

// ExperimentIDs lists every reproducible table/figure id.
func ExperimentIDs() []string { return exp.IDs() }

// RunExperiment reproduces one table or figure, writing its rows to w.
func RunExperiment(s *Suite, id string, w io.Writer) error {
	e, ok := exp.ByID(id)
	if !ok {
		return fmt.Errorf("parallax: unknown experiment %q (have %v)", id, exp.IDs())
	}
	e.Run(s, w)
	return nil
}

// RunAllExperiments reproduces every table and figure in order.
func RunAllExperiments(s *Suite, w io.Writer) { s.RunAll(w) }
