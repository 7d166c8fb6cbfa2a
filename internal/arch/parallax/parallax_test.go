package parallax

import (
	"sync"
	"testing"

	"github.com/parallax-arch/parallax/internal/arch/cpu"
	"github.com/parallax-arch/parallax/internal/arch/link"
	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/workload"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// capture builds a scaled-down benchmark and captures its workload.
// Scale 0.25 keeps tests quick while leaving realistic structure.
func capture(t *testing.T, name string, scale float64) *Workload {
	t.Helper()
	b, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("benchmark %s not found", name)
	}
	return Capture(name, b.Build(scale), 1, 2)
}

func TestCaptureBasics(t *testing.T) {
	wl := capture(t, "Periodic", 0.2)
	if len(wl.Frame.Steps) != world.StepsPerFrame {
		t.Fatalf("frame steps = %d", len(wl.Frame.Steps))
	}
	if wl.Frame.Steps[0].PairList == nil {
		t.Fatal("detail recording missing")
	}
	instr := wl.FrameInstr()
	if instr.Total() <= 0 || instr.Serial() <= 0 {
		t.Fatalf("instruction counts empty: %+v", instr)
	}
	if instr.Serial() >= instr.Total()/2 {
		t.Errorf("serial fraction = %v of %v, expected the minority",
			instr.Serial(), instr.Total())
	}
}

func TestSerialFractionSmallButNonzero(t *testing.T) {
	// Paper: serial phases average ~9% of total execution.
	wl := capture(t, "Mix", 0.2)
	instr := wl.FrameInstr()
	frac := instr.Serial() / instr.Total()
	if frac <= 0.005 || frac >= 0.5 {
		t.Errorf("serial instruction fraction = %v, want small single digits", frac)
	}
}

func TestCGFrameTimeScalesWithCores(t *testing.T) {
	wl := capture(t, "Ragdoll", 0.25)
	t1 := wl.CGOnly(1, 1, false).Total()
	t2 := wl.CGOnly(2, 12, true).Total()
	t4 := wl.CGOnly(4, 12, true).Total()
	if !(t2 < t1 && t4 < t2) {
		t.Fatalf("scaling broken: 1P=%v 2P=%v 4P=%v", t1, t2, t4)
	}
	// Sub-linear: 4 cores should not be 4x.
	if t4 < t1/4 {
		t.Errorf("4-core scaling superlinear: %v vs %v", t4, t1)
	}
	// Serial time is independent of core count.
	s1 := wl.CGOnly(1, 12, true).Serial()
	s4 := wl.CGOnly(4, 12, true).Serial()
	if s4 < s1*0.9 || s4 > s1*1.1 {
		t.Errorf("serial time changed with cores: %v vs %v", s1, s4)
	}
}

func TestEightThreadsDegrade(t *testing.T) {
	// Fig 6b: the 8-thread configuration explodes kernel L2 misses.
	wl := capture(t, "Breakable", 0.2)
	m4 := wl.SimulateMemory(MemConfig{Cores: 4, L2MB: 12, Threads: 4, DedicatedPhase: -1})
	m8 := wl.SimulateMemory(MemConfig{Cores: 8, L2MB: 12, Threads: 8, DedicatedPhase: -1})
	_, k4 := m4.TotalL2Misses()
	_, k8 := m8.TotalL2Misses()
	if k8 < k4*3 {
		t.Errorf("kernel L2 misses at 8 threads (%d) should blow up vs 4 (%d)", k8, k4)
	}
}

func TestSerialPhasesImproveWithL2(t *testing.T) {
	// Fig 2b: the serial phases improve as the shared L2 grows, then
	// plateau.
	wl := capture(t, "Explosions", 0.25)
	prev := -1.0
	var times []float64
	for _, mb := range []int{1, 2, 4, 8, 16} {
		s := wl.CGOnly(1, mb, false).Serial()
		times = append(times, s)
		if prev > 0 && s > prev*1.05 {
			t.Errorf("serial time rose with bigger L2: %vMB -> %v (prev %v)", mb, s, prev)
		}
		prev = s
	}
	if times[len(times)-1] >= times[0] {
		t.Errorf("no improvement from 1MB to 16MB: %v", times)
	}
}

func TestDedicatedCachePlateaus(t *testing.T) {
	// Section 6.1: with dedicated per-phase cache state, the serial
	// phases' performance plateaus at a modest capacity (4MB in the
	// paper) — growing the dedicated cache further buys almost nothing,
	// and the plateau performance is at least as good as the
	// small-shared-cache configuration.
	wl := capture(t, "Explosions", 0.25)
	ded := func(mb int) float64 {
		return wl.DedicatedPhaseTime(world.PhaseBroad, 1, mb) +
			wl.DedicatedPhaseTime(world.PhaseIslandGen, 1, mb)
	}
	d4, d16 := ded(4), ded(16)
	if d4 > d16*1.10 {
		t.Errorf("dedicated serial time has not plateaued by 4MB: %v vs %v at 16MB", d4, d16)
	}
	shared1 := wl.CGOnly(1, 1, false).Serial()
	if d16 > shared1*1.05 {
		t.Errorf("dedicated plateau %v should not lose to a 1MB shared cache %v", d16, shared1)
	}
}

func TestPartitioningReducesSerialTime(t *testing.T) {
	wl := capture(t, "Explosions", 0.25)
	un := wl.CGOnly(4, 12, false)
	pt := wl.CGOnly(4, 12, true)
	if pt.Serial() > un.Serial()*1.02 {
		t.Errorf("partitioned serial %v should be <= unpartitioned %v",
			pt.Serial(), un.Serial())
	}
}

func TestFGCoreCountOrdering(t *testing.T) {
	// Fig 10b: desktop < console < shader core counts for the same
	// budget.
	// A small capture needs a proportionally small budget to exercise
	// the sizing; the full-scale suite uses the paper's 32%.
	wl := capture(t, "Mix", 0.25)
	const budget = 0.02
	d := wl.FGCoresFor30FPS(cpu.Desktop, budget, link.OnChip)
	c := wl.FGCoresFor30FPS(cpu.Console, budget, link.OnChip)
	s := wl.FGCoresFor30FPS(cpu.Shader, budget, link.OnChip)
	if !(d < c && c < s) {
		t.Fatalf("core counts not ordered: desktop %d, console %d, shader %d", d, c, s)
	}
	// Tighter budget needs more cores.
	d2 := wl.FGCoresFor30FPS(cpu.Desktop, budget/2, link.OnChip)
	if d2 <= d {
		t.Errorf("half budget (%d cores) should need more than %d", d2, d)
	}
}

func TestInterconnectOrdering(t *testing.T) {
	wl := capture(t, "Mix", 0.25)
	on := wl.FGTime(cpu.Shader, 150, link.OnChip)
	htx := wl.FGTime(cpu.Shader, 150, link.HTX)
	pcie := wl.FGTime(cpu.Shader, 150, link.PCIe)
	if !(on.Total() <= htx.Total() && htx.Total() <= pcie.Total()) {
		t.Fatalf("interconnect ordering wrong: %v %v %v",
			on.Total(), htx.Total(), pcie.Total())
	}
	if on.BufferTasks < 1 || pcie.BufferTasks <= on.BufferTasks {
		t.Errorf("buffering: on-chip %d vs PCIe %d", on.BufferTasks, pcie.BufferTasks)
	}
}

func TestFilteringRecoversHiding(t *testing.T) {
	wl := capture(t, "Mix", 0.25)
	_, lost0 := wl.FilteredFGTime(cpu.Shader, 150, link.HTX, 0)
	_, lost50 := wl.FilteredFGTime(cpu.Shader, 150, link.HTX, 50)
	if lost0 != 0 {
		t.Errorf("no filter should lose no work: %v", lost0)
	}
	if lost50 <= 0 || lost50 >= 1 {
		t.Errorf("filtering at 50 tasks lost fraction = %v", lost50)
	}
}

func TestSystemEvaluate(t *testing.T) {
	wl := capture(t, "Mix", 0.25)
	ref := Reference()
	b := wl.Evaluate(ref)
	if b.Total() <= 0 {
		t.Fatal("zero frame time")
	}
	if b.AreaMM2 <= 0 {
		t.Fatal("zero area")
	}
	// Without the FG pool the same machine is slower.
	noFG := ref
	noFG.FGCount = 0
	b0 := wl.Evaluate(noFG)
	if b0.Total() <= b.Total() {
		t.Errorf("FG pool should speed up the frame: %v vs %v", b0.Total(), b.Total())
	}
}

func TestModel2TransferTiny(t *testing.T) {
	// Section 8.3: the example transfer costs ~0.00006s.
	got := PaperModel2Example()
	if got < 2e-5 || got > 2e-4 {
		t.Errorf("Model 2 example transfer = %v s, want ~6e-5", got)
	}
	wl := capture(t, "Deformable", 0.2)
	if tt := wl.Model2TransferTime(); tt <= 0 || tt > 1e-3 {
		t.Errorf("Model 2 transfer = %v", tt)
	}
}

func TestAvailableTasksPopulated(t *testing.T) {
	wl := capture(t, "Deformable", 0.2)
	pairs, dof, verts := wl.AvailableFGTasks()
	if pairs <= 0 || dof <= 0 || verts <= 0 {
		t.Errorf("tasks = %v %v %v", pairs, dof, verts)
	}
	if wl.LargestClothVerts() != 625 {
		t.Errorf("largest cloth = %d, want 625", wl.LargestClothVerts())
	}
}

func TestIdealVsSimulatedFGCores(t *testing.T) {
	wl := capture(t, "Mix", 0.25)
	ideal := wl.IdealFGCores(cpu.Shader, 0.32)
	sim := wl.FGCoresFor30FPS(cpu.Shader, 0.32, link.OnChip)
	if sim < ideal {
		t.Errorf("simulated count %d below ideal bound %d", sim, ideal)
	}
}

// TestKernelIPCKeyedByFullConfig: the memo must key on the whole
// cpu.Config value. Two distinct configurations sharing a name (or both
// zero-named, as custom sweeps produce) must not collide.
func TestKernelIPCKeyedByFullConfig(t *testing.T) {
	wl := capture(t, "Periodic", 0.15)
	narrow := cpu.Shader
	narrow.Name = ""
	wide := cpu.Desktop
	wide.Name = ""
	a := wl.KernelIPC(narrow)
	b := wl.KernelIPC(wide)
	if a == b {
		t.Fatalf("two zero-named configs returned identical IPC vectors %v; the cache is colliding by name", a)
	}
	// Same config again hits the memo and returns identical values.
	if c := wl.KernelIPC(narrow); c != a {
		t.Errorf("memoized lookup changed: %v vs %v", c, a)
	}
}

// TestKernelIPCConcurrent hammers the memo from many goroutines (run
// with -race to catch unsynchronized access) and checks all callers see
// the same singleflighted result.
func TestKernelIPCConcurrent(t *testing.T) {
	wl := capture(t, "Periodic", 0.15)
	want := wl.KernelIPC(cpu.Console)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, cfg := range []cpu.Config{cpu.Console, cpu.Shader, cpu.Desktop} {
				v := wl.KernelIPC(cfg)
				if cfg == cpu.Console && v != want {
					errs <- "concurrent KernelIPC returned a different vector"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestSimulateMemoryMemo pins the memo at SimulateMemory (run with -race
// in CI): concurrent requests for one configuration simulate once, the
// key is the normalized MemConfig in full, and a memoised result is the
// uncached simulation's.
func TestSimulateMemoryMemo(t *testing.T) {
	wl := capture(t, "Periodic", 0.15)
	reg := obs.NewRegistry()
	wl.SetObs(nil, reg, "arch/Periodic")
	computed := func() int64 { return reg.CounterValue(wl.obs.memsimComputed) }

	base := MemConfig{Cores: 2, L2MB: 3, Threads: 2, DedicatedPhase: -1}
	var wg sync.WaitGroup
	results := make([]MemResult, 16)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = wl.SimulateMemory(base)
		}(g)
	}
	wg.Wait()
	if n := computed(); n != 1 {
		t.Fatalf("16 concurrent requests for one MemConfig ran %d simulations, want 1", n)
	}
	want := wl.simulateMemory(base)
	for g, r := range results {
		if r != want {
			t.Fatalf("goroutine %d: memoised result %+v differs from the uncached simulation %+v", g, r, want)
		}
	}

	// The defaults are applied before the lookup.
	wl.SimulateMemory(MemConfig{L2MB: 1, DedicatedPhase: -1})
	wl.SimulateMemory(MemConfig{Cores: 1, L2MB: 1, Threads: 1, DedicatedPhase: -1})
	if n := computed(); n != 2 {
		t.Errorf("a MemConfig and its defaulted twin ran %d simulations, want 1", n-1)
	}

	// Every field is part of the key.
	variants := []MemConfig{base, base, base, base}
	variants[0].PrefetchDepth = 4
	variants[1].Threads = 1
	variants[2].Partitioned = true
	variants[3].DedicatedPhase = int(world.PhaseBroad)
	for i, v := range variants {
		before := computed()
		if got, want := wl.SimulateMemory(v), wl.simulateMemory(v); got != want {
			t.Errorf("variant %d (%+v): memoised result differs from the uncached simulation", i, v)
		}
		if computed() != before+1 {
			t.Errorf("variant %d (%+v) collided with an earlier configuration", i, v)
		}
	}
	if got := reg.CounterValue(wl.obs.memsimRequests); got != 16+2+int64(len(variants)) {
		t.Errorf("memsim_requests = %d, want one per SimulateMemory call (%d)", got, 16+2+len(variants))
	}
}
