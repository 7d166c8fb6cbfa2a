package exp

import (
	"testing"

	"github.com/parallax-arch/parallax/internal/arch/cpu"
	"github.com/parallax-arch/parallax/internal/arch/kernels"
	"github.com/parallax-arch/parallax/internal/arch/link"
	"github.com/parallax-arch/parallax/internal/arch/parallax"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// These tests pin the paper's qualitative results — the shapes every
// figure must reproduce — at a reduced scale so the whole net runs in
// seconds. Absolute values are free to move with calibration; the
// orderings and crossovers here must not.

func TestShapeSerialFractionSmall(t *testing.T) {
	// Paper: serial phases average ~9% of execution.
	s := suiteForTest(t)
	sum, n := 0.0, 0
	for _, wl := range s.Workloads() {
		r := wl.CGOnly(1, 1, false)
		sum += r.Serial() / r.Total()
		n++
	}
	avg := sum / float64(n)
	if avg < 0.02 || avg > 0.35 {
		t.Errorf("serial fraction avg = %v, want small minority", avg)
	}
}

func TestShapeComplexityOrdering(t *testing.T) {
	// Paper Fig 2a: execution time scales in complexity; the heavy trio
	// (Explosions, Highspeed, Mix) dwarfs Periodic/Ragdoll.
	s := suiteForTest(t)
	total := func(name string) float64 {
		return s.byName(name).CGOnly(1, 1, false).Total()
	}
	// (Wall/building sizes scale super-linearly with the suite scale, so
	// at the reduced test scale we require strict ordering; at full
	// scale the heavy trio is an order of magnitude above — see
	// EXPERIMENTS.md.)
	light := (total("Periodic") + total("Ragdoll")) / 2
	for _, heavy := range []string{"Explosions", "Highspeed", "Mix"} {
		if total(heavy) <= light {
			t.Errorf("%s (%v) should exceed the light benchmarks (%v)",
				heavy, total(heavy), light)
		}
	}
}

func TestShapeSerialL2Monotone(t *testing.T) {
	// Paper Fig 2b: serial time never rises as the shared L2 grows, and
	// the heavy benchmarks improve measurably.
	s := suiteForTest(t)
	for _, name := range []string{"Explosions", "Mix"} {
		wl := s.byName(name)
		prev := -1.0
		first, last := 0.0, 0.0
		for _, mb := range []int{1, 2, 4, 8, 16} {
			v := wl.CGOnly(1, mb, false).Serial()
			if prev > 0 && v > prev*1.05 {
				t.Errorf("%s: serial time rose at %dMB: %v -> %v", name, mb, prev, v)
			}
			if first == 0 {
				first = v
			}
			last = v
			prev = v
		}
		if last >= first {
			t.Errorf("%s: no L2 benefit: %v -> %v", name, first, last)
		}
	}
}

func TestShapeCGScalingSublinearAndDecreasing(t *testing.T) {
	// Paper Fig 5b: positive but sub-linear gains, diminishing 2->4.
	s := suiteForTest(t)
	g12, g24, n := 0.0, 0.0, 0.0
	for _, wl := range s.Workloads() {
		t1 := wl.CGOnly(1, 12, true).Total()
		t2 := wl.CGOnly(2, 12, true).Total()
		t4 := wl.CGOnly(4, 12, true).Total()
		g12 += t1/t2 - 1
		g24 += t2/t4 - 1
		n++
	}
	g12, g24 = g12/n, g24/n
	if g12 <= 0 || g12 >= 1.0 {
		t.Errorf("1->2 gain = %v, want positive and sub-linear", g12)
	}
	if g24 >= g12 {
		t.Errorf("2->4 gain (%v) should diminish vs 1->2 (%v)", g24, g12)
	}
}

func TestShapeKernelMissBlowupAtEightThreads(t *testing.T) {
	// Paper Fig 6b.
	s := suiteForTest(t)
	wl := s.byName("Mix")
	m4 := wl.SimulateMemory(memCfg(4))
	m8 := wl.SimulateMemory(memCfg(8))
	u4, k4 := m4.TotalL2Misses()
	u8, k8 := m8.TotalL2Misses()
	if k8 < k4*4 {
		t.Errorf("kernel misses at 8 threads (%d) should blow up vs 4 (%d)", k8, k4)
	}
	if float64(u8) > float64(u4)*1.5 {
		t.Errorf("user misses should stay roughly flat: %d -> %d", u4, u8)
	}
}

func TestShapeFGCoreOrderingAndArea(t *testing.T) {
	// Paper Fig 10b: desktop < console < shader counts; shader pool
	// cheapest in area.
	s := suiteForTest(t)
	wl := s.byName("Mix")
	const budget = 0.02 // small capture -> small budget exercises sizing
	d := wl.FGCoresFor30FPS(cpu.Desktop, budget, link.OnChip)
	c := wl.FGCoresFor30FPS(cpu.Console, budget, link.OnChip)
	sh := wl.FGCoresFor30FPS(cpu.Shader, budget, link.OnChip)
	if !(d < c && c < sh) {
		t.Fatalf("core-count ordering wrong: %d %d %d", d, c, sh)
	}
}

func TestShapeTable7Ordering(t *testing.T) {
	// Paper Table 7: buffering on-chip <= HTX <= PCIe for every kernel,
	// and island needs the deepest buffering over PCIe.
	s := suiteForTest(t)
	wl := s.byName("Mix")
	ipcs := wl.KernelIPC(cpu.Desktop)
	for k := kernels.Narrow; k < kernels.NumKernels; k++ {
		taskSec := wl.TaskTime(k, ipcs[k])
		if taskSec <= 0 {
			continue
		}
		on := link.For(link.OnChip).TasksToHide(taskSec, k.DataIn(), k.DataOut())
		ht := link.For(link.HTX).TasksToHide(taskSec, k.DataIn(), k.DataOut())
		pc := link.For(link.PCIe).TasksToHide(taskSec, k.DataIn(), k.DataOut())
		if !(on <= ht && ht <= pc) {
			t.Errorf("%v: buffering not ordered: %d %d %d", k, on, ht, pc)
		}
	}
}

func TestShapeFig11Ordering(t *testing.T) {
	// Paper Fig 11: the pair-rich benchmarks lead; cloth tasks only in
	// Deformable and Mix.
	s := suiteForTest(t)
	get := func(name string) (p, d, v float64) { return s.byName(name).AvailableFGTasks() }
	pe, _, ve := get("Periodic")
	ph, _, _ := get("Highspeed")
	_, _, vd := get("Deformable")
	_, _, vm := get("Mix")
	if ph <= pe {
		t.Errorf("Highspeed pairs (%v) should exceed Periodic (%v)", ph, pe)
	}
	if ve != 0 {
		t.Errorf("Periodic has cloth tasks: %v", ve)
	}
	if vd <= 0 || vm <= 0 {
		t.Errorf("Deformable/Mix missing cloth tasks: %v %v", vd, vm)
	}
}

func TestShapeReferenceSystemBeatsCMP(t *testing.T) {
	// The proposed system must beat the 4-core CMP on every benchmark.
	s := suiteForTest(t)
	for _, wl := range s.Workloads() {
		cmp := wl.CGOnly(4, 12, true).Total()
		sys := wl.Evaluate(parallax.Reference())
		if sys.Total() >= cmp {
			t.Errorf("%s: ParallAX (%v) does not beat the CMP (%v)",
				wl.Name, sys.Total(), cmp)
		}
	}
}

func TestShapeIdealCGLimitBindsOnMix(t *testing.T) {
	// Paper Fig 7a: the largest island bounds Mix's CG scaling hardest.
	s := suiteForTest(t)
	ipMix, _ := s.byName("Mix").IdealCGLimit()
	ipRag, _ := s.byName("Ragdoll").IdealCGLimit()
	if ipMix <= ipRag {
		t.Errorf("Mix ideal island time (%v) should exceed Ragdoll (%v)", ipMix, ipRag)
	}
}

func TestShapeSerialTimeCoreInvariant(t *testing.T) {
	// Serial phases do not speed up with more cores (paper Fig 9a).
	s := suiteForTest(t)
	wl := s.byName("Explosions")
	s1 := wl.CGOnly(1, 12, true).Serial()
	s4 := wl.CGOnly(4, 12, true).Serial()
	if s4 < s1*0.85 || s4 > s1*1.15 {
		t.Errorf("serial time varies with cores: %v vs %v", s1, s4)
	}
}

func TestShapeMemCfgPhasesCovered(t *testing.T) {
	// Sanity: the memory simulation touches every phase with work.
	s := suiteForTest(t)
	wl := s.byName("Deformable")
	m := wl.SimulateMemory(memCfg(2))
	for ph := world.Phase(0); ph < world.NumPhases; ph++ {
		if m.Phase[ph].Accesses == 0 {
			t.Errorf("phase %v has no simulated accesses", ph)
		}
	}
}
