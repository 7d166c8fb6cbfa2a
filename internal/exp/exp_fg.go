package exp

import (
	"fmt"
	"io"

	"github.com/parallax-arch/parallax/internal/arch/arbiter"
	"github.com/parallax-arch/parallax/internal/arch/area"
	"github.com/parallax-arch/parallax/internal/arch/cpu"
	"github.com/parallax-arch/parallax/internal/arch/kernels"
	"github.com/parallax-arch/parallax/internal/arch/link"
	"github.com/parallax-arch/parallax/internal/arch/parallax"
)

func memCfg(threads int) parallax.MemConfig {
	return parallax.MemConfig{
		Cores: threads, L2MB: 12, Partitioned: true, Threads: threads,
		DedicatedPhase: -1,
	}
}

// fgTypes are the realistic FG design points of Fig 10.
var fgTypes = []cpu.Config{cpu.Desktop, cpu.Console, cpu.Shader}

// Fig9a: Mix's execution decomposed into serial, CG-parallel and
// FG-parallel components at 1 core/9MB and 4 cores/12MB.
func (s *Suite) Fig9a(w io.Writer) {
	wl := s.byName("Mix")
	fmt.Fprintf(w, "%-14s %10s %14s %14s %10s\n",
		"Config", "Serial(ms)", "CG coarse(ms)", "FG fine(ms)", "FG share")
	for _, cfg := range []struct {
		cores, l2 int
	}{{1, 9}, {4, 12}} {
		r := wl.CGOnly(cfg.cores, cfg.l2, true)
		var cgPart, fgPart float64
		for _, k := range kernels.FG {
			cgPart += r.PhaseTime[k] * (1 - k.FGShare())
			fgPart += r.PhaseTime[k] * k.FGShare()
		}
		total := r.Total()
		fmt.Fprintf(w, "%dP + %2dMB     %10.2f %14.2f %14.2f %9.0f%%\n",
			cfg.cores, cfg.l2, r.Serial()*1e3, cgPart*1e3, fgPart*1e3,
			fgPart/total*100)
	}
	nonFG := nonFGTime(wl)
	fmt.Fprintf(w, "serial + CG components take %.0f%% of one frame's time; %.0f%% remains for FG work\n",
		nonFG/parallax.FrameBudget*100, (1-nonFG/parallax.FrameBudget)*100)
}

// nonFGTime is the frame time the 4-core 12MB partitioned CG machine
// spends outside FG kernels: the serial phases plus the CG residue of
// the parallel ones, added to the serial time one phase at a time (the
// association the printed figures were computed with).
func nonFGTime(wl *parallax.Workload) float64 {
	r := wl.CGOnly(4, 12, true)
	t := r.Serial()
	for _, k := range kernels.FG {
		t += r.PhaseTime[k] * (1 - k.FGShare())
	}
	return t
}

// Fig9b: instruction mix of the three FG kernels.
func (s *Suite) Fig9b(w io.Writer) {
	fmt.Fprintf(w, "%-18s %8s %8s %8s %8s %8s %8s %8s\n",
		"Kernel", "int alu", "branch", "fp add", "fp mult", "rd port", "wr port", "static")
	for _, k := range kernels.FG {
		m := kernels.Summary(k.Mix())
		fmt.Fprintf(w, "%-18s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %8d\n",
			k.String(), m.IntALU*100, m.Branch*100, m.FPAdd*100,
			m.FPMul*100, m.Read*100, m.Write*100, k.StaticSize())
	}
}

// Fig10a: IPC of the four core types on the three kernels, plus the
// ideal-branch-prediction delta on Narrowphase.
func (s *Suite) Fig10a(w io.Writer) {
	// Kernel IPC depends on the core alone: any one workload serves.
	wl := s.capture(s.entries[0])
	fmt.Fprintf(w, "%-10s %14s %14s %14s\n", "Core", "Narrowphase", "Island", "Cloth")
	for _, cfg := range cpu.FGConfigs {
		ipc := wl.KernelIPC(cfg)
		fmt.Fprintf(w, "%-10s %14.2f %14.2f %14.2f\n",
			cfg.Name, ipc[kernels.Narrow], ipc[kernels.Island], ipc[kernels.Cloth])
	}
	// Ideal branch prediction on Narrowphase (paper: ~30% improvement).
	real := wl.KernelIPC(cpu.Desktop)[kernels.Narrow]
	core := cpu.New(cpu.Desktop)
	core.PerfectBP = true
	ideal := core.Run(kernels.Narrow.IPCTrace()).IPC()
	fmt.Fprintf(w, "ideal BP on Narrowphase (desktop): %.2f -> %.2f (%.0f%%)\n",
		real, ideal, (ideal/real-1)*100)
}

// Fig10b: FG cores required per type for 30 FPS at fixed frame-budget
// fractions and at the simulated budget, plus area and the off-chip
// variants.
func (s *Suite) Fig10b(w io.Writer) {
	wl := s.byName("Mix")
	// The simulated budget: whatever the 4-core CG machine leaves.
	simBudget := 1 - nonFGTime(wl)/parallax.FrameBudget
	if simBudget < 0.02 {
		simBudget = 0.02
	}
	budgets := []struct {
		name string
		frac float64
	}{
		{"100%", 1.0}, {"50%", 0.5}, {"25%", 0.25}, {"12.5%", 0.125},
		{fmt.Sprintf("sim(%.0f%%)", simBudget*100), simBudget},
	}
	// The budget x core-type pool sizing is a binary search per cell;
	// evaluate the grid on the worker pool.
	cells := grid(s, len(budgets), len(fgTypes), func(r, c int) int {
		return wl.FGCoresFor30FPS(fgTypes[c], budgets[r].frac, link.OnChip)
	})
	fmt.Fprintf(w, "%-10s", "Budget")
	for _, t := range fgTypes {
		fmt.Fprintf(w, " %9s", t.Name)
	}
	fmt.Fprintln(w)
	var simCounts []int
	for i, b := range budgets {
		fmt.Fprintf(w, "%-10s", b.name)
		for j := range fgTypes {
			fmt.Fprintf(w, " %9d", cells[i][j])
			// The simulated-budget row is the last table entry by
			// construction; match it by position, not float equality.
			if i == len(budgets)-1 {
				simCounts = append(simCounts, cells[i][j])
			}
		}
		fmt.Fprintln(w)
	}
	if len(simCounts) == len(fgTypes) {
		fmt.Fprintf(w, "area at simulated budget:")
		for i, t := range fgTypes {
			fmt.Fprintf(w, "  %s %.0f mm2", t.Name, area.FGPoolMM2(t, simCounts[i]))
		}
		fmt.Fprintln(w)
	}
	// Off-chip variants for the shader pool.
	fmt.Fprintf(w, "shader cores over HTX: %d, over PCIe: %d\n",
		wl.FGCoresFor30FPS(cpu.Shader, simBudget, link.HTX),
		wl.FGCoresFor30FPS(cpu.Shader, simBudget, link.PCIe))
}

// Table7: tasks required to hide communication latency per core type
// and interconnect, for the pool sizes of Fig 10b.
func (s *Suite) Table7(w io.Writer) {
	wl := s.byName("Mix")
	pool := map[string]int{"Desktop": 30, "Console": 43, "Shader": 150}
	fmt.Fprintf(w, "%-10s %-9s %28s\n", "", "", "(Narrowphase, Island, Cloth)")
	for _, t := range fgTypes {
		ipcs := wl.KernelIPC(t)
		n := pool[t.Name]
		fmt.Fprintf(w, "%-10s", t.Name)
		for _, lk := range []link.Kind{link.OnChip, link.HTX, link.PCIe} {
			lc := link.For(lk)
			var counts [len(kernels.FG)]int
			for i, k := range kernels.FG {
				taskSec := wl.TaskTime(k, ipcs[k])
				counts[i] = lc.TasksToHide(taskSec, k.DataIn(), k.DataOut()) * n
			}
			fmt.Fprintf(w, "  %s(%d, %d, %d)", lk, counts[0], counts[1], counts[2])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "2KB of local storage buffers the minimum data in all on-chip cases")
}

// Fig11: average available fine-grain tasks per benchmark.
func (s *Suite) Fig11(w io.Writer) {
	fmt.Fprintf(w, "%-12s %14s %18s %14s\n",
		"Benchmark", "Object-Pairs", "Island Processing", "Cloth")
	for _, wl := range s.Workloads() {
		p, d, v := wl.AvailableFGTasks()
		fmt.Fprintf(w, "%-12s %14.0f %18.0f %14.0f\n", wl.Name, p, d, v)
	}
}

// Sec721: dynamic hierarchical arbitration vs static mapping — cores
// (and area) needed to finish the FG work of the skewed island load in
// the same deadline.
func (s *Suite) Sec721(w io.Writer) {
	wl := s.byName("Mix")
	ipc := wl.KernelIPC(cpu.Shader)[kernels.Island]
	taskSec := wl.TaskTime(kernels.Island, ipc)
	if taskSec <= 0 {
		taskSec = 50e-9
	}
	// Build per-CG queues from the measured island structure: islands
	// are distributed round-robin to 4 CG cores, as the engine does.
	const nCG = 4
	queues := make([][]arbiter.Task, nCG)
	for i, dof := range wl.IslandDOFsSorted() {
		cg := i % nCG
		for r := 0; r < dof; r++ {
			queues[cg] = append(queues[cg], arbiter.Task{CG: cg, Compute: taskSec})
		}
	}
	total := 0.0
	for _, q := range queues {
		total += float64(len(q)) * taskSec
	}
	deadline := total / 64 * 1.2
	nd := arbiter.CoresForDeadline(arbiter.Dynamic, nCG, queues, deadline, 1024)
	ns := arbiter.CoresForDeadline(arbiter.Static, nCG, queues, deadline, 1024)
	ad := area.FGPoolMM2(cpu.Shader, nd)
	as := area.FGPoolMM2(cpu.Shader, ns)
	fmt.Fprintf(w, "deadline %.3f ms: dynamic needs %d shader cores (%.0f mm2), static needs %d (%.0f mm2)\n",
		deadline*1e3, nd, ad, ns, as)
	fmt.Fprintf(w, "static mapping costs %.0f%% more area\n", (as/ad-1)*100)
	d := arbiter.Simulate(arbiter.Dynamic, nCG, nd, queues)
	fmt.Fprintf(w, "dynamic utilization %.0f%%, locality %.0f%%\n",
		d.Utilization*100, d.LocalityFraction*100)
	// Arbiter queue-depth accounting for the observability snapshot:
	// exact integers from a deterministic simulation, so the metrics
	// stay thread-count invariant.
	reg := s.Metrics()
	reg.Add(reg.Counter("arch/arbiter/tasks_run"), int64(d.TasksRun))
	reg.Add(reg.Counter("arch/arbiter/queue_depth_sum"), d.QueueDepthSum)
	reg.SetGauge(reg.Gauge("arch/arbiter/max_queue_depth"), float64(d.MaxQueueDepth))
}

// Sec822: filtering small islands and cloths to hide off-chip latency.
// The paper filters islands and cloths with fewer than 50 FG tasks for
// HTX (losing an average 2% of island and 29% of cloth work) and
// islands under 1710 tasks for PCIe (losing 59%).
func (s *Suite) Sec822(w io.Writer) {
	fmt.Fprintf(w, "%-12s %20s %20s %22s\n", "Benchmark",
		"HTX isl<50: lost", "HTX cloth<50: lost", "PCIe isl<1710: lost")
	avgHTX, avgCloth, avgPCIe := 0.0, 0.0, 0.0
	n, nc := 0, 0
	for _, wl := range s.Workloads() {
		lost50, clothLost, hasCloth := wl.FilteredWork(50)
		lost1710, _, _ := wl.FilteredWork(1710)
		if hasCloth {
			fmt.Fprintf(w, "%-12s %19.0f%% %19.0f%% %21.0f%%\n",
				wl.Name, lost50*100, clothLost*100, lost1710*100)
			avgCloth += clothLost
			nc++
		} else {
			fmt.Fprintf(w, "%-12s %19.0f%% %19s %21.0f%%\n",
				wl.Name, lost50*100, "-", lost1710*100)
		}
		avgHTX += lost50
		avgPCIe += lost1710
		n++
	}
	fmt.Fprintf(w, "average work lost: HTX islands %.0f%%, HTX cloth %.0f%%, PCIe islands %.0f%%\n",
		avgHTX/float64(n)*100, avgCloth/float64(max(nc, 1))*100, avgPCIe/float64(n)*100)
}

// Sec83: Model 2's per-frame state transfer over PCIe.
func (s *Suite) Sec83(w io.Writer) {
	fmt.Fprintf(w, "paper example (1000 objects, 10000 particles, 5000 verts): %.5f s\n",
		parallax.PaperModel2Example())
	for _, wl := range s.Workloads() {
		fmt.Fprintf(w, "%-12s per-frame transfer %.6f s (%.2f%% of a frame)\n",
			wl.Name, wl.Model2TransferTime(), wl.Model2TransferTime()/parallax.FrameBudget*100)
	}
}
