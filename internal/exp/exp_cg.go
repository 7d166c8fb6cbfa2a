package exp

import (
	"fmt"
	"io"
	"slices"

	"github.com/parallax-arch/parallax/internal/arch/kernels"
	"github.com/parallax-arch/parallax/internal/arch/parallax"
	"github.com/parallax-arch/parallax/internal/phys/workload"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// l2Sweep is the shared-L2 sweep of Fig 2b.
var l2Sweep = []int{1, 2, 4, 8, 16, 32}

// dedicatedSweep is the per-phase dedicated-cache sweep of Figs 3-5a.
var dedicatedSweep = []int{1, 2, 4, 8, 16}

// Table3 prints each benchmark's modeled instructions per frame.
func (s *Suite) Table3(w io.Writer) {
	fmt.Fprintf(w, "%-12s %18s  %s\n", "Benchmark", "Instr/Frame", "Genre")
	for _, wl := range s.Workloads() {
		instr := wl.FrameInstr()
		b, _ := workload.ByName(wl.Name) // unknown name: zero Benchmark, empty genre
		fmt.Fprintf(w, "%-12s %15.1f M  %s\n", wl.Name, instr.Total()/1e6, b.Genre)
	}
}

// Table4 prints the benchmark composition stats.
func (s *Suite) Table4(w io.Writer) {
	fmt.Fprintf(w, "%-12s %9s %8s %7s %10s %8s %9s %13s %13s\n",
		"Benchmark", "Obj-Pairs", "Islands", "Cloths", "[vertices]",
		"Static", "Dynamic", "Prefractured", "StaticJoints")
	for _, wl := range s.Workloads() {
		statics, dynamics, debris, cloths, verts, joints := workload.Composition(wl.World)
		pairs, _, _ := wl.AvailableFGTasks()
		islands := 0
		for i := range wl.Frame.Steps {
			if n := len(wl.Frame.Steps[i].Islands); n > islands {
				islands = n
			}
		}
		fmt.Fprintf(w, "%-12s %9.0f %8d %7d %10d %8d %9d %13d %13d\n",
			wl.Name, pairs, islands, cloths, verts,
			statics, dynamics, debris, joints)
	}
}

// Fig2a prints the single-core 1MB-L2 frame-time breakdown per phase,
// the configuration that motivates the whole study (Mix at ~2.3 FPS).
func (s *Suite) Fig2a(w io.Writer) {
	wls := s.Workloads()
	rs := make([]parallax.CGResult, len(wls))
	s.pool(len(wls), func(i int) { rs[i] = wls[i].CGOnly(1, 1, false) })

	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s %10s %10s %8s %9s\n",
		"Benchmark", "Broad(ms)", "Narrow", "IslGen", "IslProc", "Cloth",
		"Total", "FPS", "Serial%")
	serialFracSum, worstSerialFrame := 0.0, 0.0
	for i, wl := range wls {
		r := rs[i]
		ms := func(ph world.Phase) float64 { return r.PhaseTime[ph] * 1e3 }
		total := r.Total()
		sf := r.Serial() / total
		serialFracSum += sf
		if fr := r.Serial() / (1.0 / 30); fr > worstSerialFrame {
			worstSerialFrame = fr
		}
		fmt.Fprintf(w, "%-12s %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f %8.1f %8.1f%%\n",
			wl.Name, ms(world.PhaseBroad), ms(world.PhaseNarrow),
			ms(world.PhaseIslandGen), ms(world.PhaseIslandProc),
			ms(world.PhaseCloth), total*1e3, r.FPS(), sf*100)
	}
	fmt.Fprintf(w, "serial phases: avg %.0f%% of execution, worst %.0f%% of one frame's budget\n",
		serialFracSum/float64(len(wls))*100, worstSerialFrame*100)
}

// Fig2b prints serial-phase time vs shared L2 capacity. The workload x
// L2-size grid is evaluated on the worker pool.
func (s *Suite) Fig2b(w io.Writer) {
	wls := s.Workloads()
	cells := grid(s, len(wls), len(l2Sweep), func(r, c int) float64 {
		return wls[r].CGOnly(1, l2Sweep[c], false).Serial()
	})

	fmt.Fprintf(w, "%-12s", "Benchmark")
	for _, mb := range l2Sweep {
		fmt.Fprintf(w, " %7dMB", mb)
	}
	fmt.Fprintln(w)
	for i, wl := range wls {
		fmt.Fprintf(w, "%-12s", wl.Name)
		for j := range l2Sweep {
			fmt.Fprintf(w, " %8.2f", cells[i][j]*1e3)
		}
		fmt.Fprintln(w, "  (ms)")
	}
}

// dedicated prints one phase's dedicated-L2 sweep, evaluating the
// workload x cache-size grid on the worker pool.
func (s *Suite) dedicated(w io.Writer, ph world.Phase, cores int, only []string) {
	var wls []*parallax.Workload
	for _, wl := range s.Workloads() {
		if only == nil || slices.Contains(only, wl.Name) {
			wls = append(wls, wl)
		}
	}
	cells := grid(s, len(wls), len(dedicatedSweep), func(r, c int) float64 {
		return wls[r].DedicatedPhaseTime(ph, cores, dedicatedSweep[c])
	})

	fmt.Fprintf(w, "%-12s", "Benchmark")
	for _, mb := range dedicatedSweep {
		fmt.Fprintf(w, " %7dMB", mb)
	}
	fmt.Fprintln(w)
	for i, wl := range wls {
		fmt.Fprintf(w, "%-12s", wl.Name)
		for j := range dedicatedSweep {
			fmt.Fprintf(w, " %8.3f", cells[i][j]*1e3)
		}
		fmt.Fprintln(w, "  (ms)")
	}
}

// Fig3a: Broadphase with dedicated L2.
func (s *Suite) Fig3a(w io.Writer) { s.dedicated(w, world.PhaseBroad, 1, nil) }

// Fig3b: Narrowphase with dedicated L2.
func (s *Suite) Fig3b(w io.Writer) { s.dedicated(w, world.PhaseNarrow, 1, nil) }

// Fig4a: Island Creation with dedicated L2.
func (s *Suite) Fig4a(w io.Writer) { s.dedicated(w, world.PhaseIslandGen, 1, nil) }

// Fig4b: Island Processing with dedicated L2.
func (s *Suite) Fig4b(w io.Writer) { s.dedicated(w, world.PhaseIslandProc, 1, nil) }

// Fig5a: Cloth with dedicated L2 (only the cloth benchmarks).
func (s *Suite) Fig5a(w io.Writer) {
	s.dedicated(w, world.PhaseCloth, 1, []string{"Deformable", "Mix"})
}

// fig5bCores is the processor-scaling sweep of Fig 5b.
var fig5bCores = []int{1, 2, 4}

// Fig5b: frame time as cores scale 1 -> 2 -> 4 with the partitioned
// 12MB L2.
func (s *Suite) Fig5b(w io.Writer) {
	wls := s.Workloads()
	cells := grid(s, len(wls), len(fig5bCores), func(r, c int) float64 {
		return wls[r].CGOnly(fig5bCores[c], 12, true).Total()
	})

	fmt.Fprintf(w, "%-12s %10s %10s %10s %12s %12s\n",
		"Benchmark", "1P (ms)", "2P (ms)", "4P (ms)", "1->2 gain", "2->4 gain")
	g12, g24 := 0.0, 0.0
	for i, wl := range wls {
		t1, t2, t4 := cells[i][0], cells[i][1], cells[i][2]
		fmt.Fprintf(w, "%-12s %10.2f %10.2f %10.2f %11.0f%% %11.0f%%\n",
			wl.Name, t1*1e3, t2*1e3, t4*1e3, (t1/t2-1)*100, (t2/t4-1)*100)
		g12 += t1/t2 - 1
		g24 += t2/t4 - 1
	}
	n := float64(len(wls))
	fmt.Fprintf(w, "average gains: 1->2 cores %.0f%%, 2->4 cores %.0f%%\n",
		g12/n*100, g24/n*100)
}

// Fig6a: the 4-core 12MB breakdown and its speedup over one core.
func (s *Suite) Fig6a(w io.Writer) {
	wls := s.Workloads()
	type pair struct{ r, base parallax.CGResult }
	rs := make([]pair, len(wls))
	s.pool(len(wls), func(i int) {
		rs[i] = pair{wls[i].CGOnly(4, 12, true), wls[i].CGOnly(1, 1, false)}
	})

	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s %10s %10s %8s %9s\n",
		"Benchmark", "Broad(ms)", "Narrow", "IslGen", "IslProc", "Cloth",
		"Total", "FPS", "vs 1P+1MB")
	for i, wl := range wls {
		r, base := rs[i].r, rs[i].base
		ms := func(ph world.Phase) float64 { return r.PhaseTime[ph] * 1e3 }
		fmt.Fprintf(w, "%-12s %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f %8.1f %8.2fx\n",
			wl.Name, ms(world.PhaseBroad), ms(world.PhaseNarrow),
			ms(world.PhaseIslandGen), ms(world.PhaseIslandProc),
			ms(world.PhaseCloth), r.Total()*1e3, r.FPS(),
			base.Total()/r.Total())
	}
}

// fig6bThreads is the thread-scaling sweep of Fig 6b.
var fig6bThreads = []int{1, 2, 4, 8}

// Fig6b: L2 miss breakdown (user vs kernel) as threads scale, the four
// thread counts simulated concurrently.
func (s *Suite) Fig6b(w io.Writer) {
	wl := s.byName("Mix")
	ms := make([]parallax.MemResult, len(fig6bThreads))
	s.pool(len(fig6bThreads), func(i int) {
		ms[i] = wl.SimulateMemory(memCfg(fig6bThreads[i]))
	})

	fmt.Fprintf(w, "%-8s %14s %14s %14s\n", "Threads", "User misses", "Kernel misses", "Total")
	var prev uint64
	for i, th := range fig6bThreads {
		u, k := ms[i].TotalL2Misses()
		fmt.Fprintf(w, "%-8d %14d %14d %14d", th, u, k, u+k)
		if th == 8 && prev > 0 {
			fmt.Fprintf(w, "   (%.1fx vs 4 threads)", float64(u+k)/float64(prev))
		}
		if th == 4 {
			prev = u + k
		}
		fmt.Fprintln(w)
	}
}

// Fig7a: the limit of coarse-grain parallelism — Island Processing and
// Cloth under ideal CG scaling vs the frame budget.
func (s *Suite) Fig7a(w io.Writer) {
	fmt.Fprintf(w, "%-12s %14s %12s %14s\n",
		"Benchmark", "IslProc (ms)", "Cloth (ms)", "frame budget")
	for _, wl := range s.Workloads() {
		ip, cl := wl.IdealCGLimit()
		note := ""
		if ip+cl > 1.0/30 {
			note = "  EXCEEDS FRAME"
		}
		fmt.Fprintf(w, "%-12s %14.2f %12.2f %11.2f ms%s\n",
			wl.Name, ip*1e3, cl*1e3, 1000.0/30, note)
	}
}

// Fig7b: instruction mix of the five phases.
func (s *Suite) Fig7b(w io.Writer) {
	fmt.Fprintf(w, "%-18s %8s %8s %8s %8s %8s %8s\n",
		"Phase", "int alu", "branch", "fp add", "fp mult", "rd port", "wr port")
	for ph := world.Phase(0); ph < world.NumPhases; ph++ {
		k := parallax.PhaseKernel(ph)
		m := kernels.Summary(k.Mix())
		fmt.Fprintf(w, "%-18s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
			ph.String(), m.IntALU*100, m.Branch*100, m.FPAdd*100,
			m.FPMul*100, m.Read*100, m.Write*100)
	}
}
