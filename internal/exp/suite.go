// Package exp reproduces every table and figure of the paper's
// evaluation. Each experiment captures the benchmark workloads it needs
// (running the real physics engine), drives the architecture models,
// and prints the same rows/series the paper reports.
//
// The harness is parallel but deterministic: captures run concurrently
// (one goroutine per benchmark, forced lazily on first use), model
// evaluations fan out on a bounded worker pool writing into
// index-addressed slices, and independent experiments render into
// private buffers merged to the output in Registry order — so the
// bytes printed are identical to a serial (Threads=1) run, except for
// the "# timing:" lines, which report wall-clock and are excluded from
// determinism comparisons (see StripTimings).
package exp

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/parallax-arch/parallax/internal/arch/parallax"
	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/workload"
)

// Suite holds the (lazily captured) workloads for the selected
// benchmarks.
type Suite struct {
	// Scale is the workload scale factor (1.0 = the paper's scene
	// sizes).
	Scale float64
	// Threads bounds the evaluation worker pool and the number of
	// concurrently running experiments. <= 0 means GOMAXPROCS.
	// Threads=1 reproduces the fully serial harness.
	Threads int

	// entries are the suite's benchmarks in paper order; each captures
	// its workload at most once, on first use.
	entries []*suiteEntry

	// captureNanos accumulates per-benchmark capture CPU time.
	captureNanos atomic.Int64
	captured     atomic.Int64

	// Observability (lazily initialized): one tracer and one metrics
	// registry shared by the harness, every captured engine world, and
	// the architecture models, so a single export shows the whole run.
	// The harness's own spans — per-benchmark captures, per-experiment
	// runs — go to a shared lane as Complete records (they finish on
	// whatever pool worker ran them), and those spans are the single
	// timing source behind both the trace export and the "# timing:"
	// output lines.
	obsOnce   sync.Once
	trace     *obs.Tracer
	metrics   *obs.Registry
	hLane     *obs.Lane
	poolTasks obs.CounterID
}

type suiteEntry struct {
	bench workload.Benchmark
	once  sync.Once
	wl    *parallax.Workload
}

// NewSuite prepares every benchmark at the given scale. Capture is
// lazy: a world is built and simulated (one warm frame, three measured;
// the paper measures frames 5-7 with peak activity arranged to fall in
// the measured window) only when an experiment first asks for the
// workload, and Workloads forces all pending captures concurrently.
func NewSuite(scale float64) *Suite {
	s := &Suite{Scale: scale}
	for _, b := range workload.All {
		s.entries = append(s.entries, &suiteEntry{bench: b})
	}
	return s
}

// NewSuiteOf prepares only the named benchmarks (used by focused
// experiments and tests). Unknown names are an error listing the valid
// benchmarks.
func NewSuiteOf(scale float64, names ...string) (*Suite, error) {
	s := &Suite{Scale: scale}
	for _, n := range names {
		b, ok := workload.ByName(n)
		if !ok {
			return nil, fmt.Errorf("exp: unknown benchmark %q (valid: %s)",
				n, strings.Join(workload.Names(), ", "))
		}
		s.entries = append(s.entries, &suiteEntry{bench: b})
	}
	return s, nil
}

// obsInit creates the suite's shared observability sinks.
func (s *Suite) obsInit() {
	s.obsOnce.Do(func() {
		s.trace = obs.NewTracer()
		s.metrics = obs.NewRegistry()
		s.hLane = s.trace.Lane("harness", 2048)
		s.poolTasks = s.metrics.Counter("harness/pool_tasks")
	})
}

// Tracer returns the suite's span tracer: harness capture/experiment
// spans, every captured world's engine phase spans, and the arch-model
// spans all land here. Export with Tracer().WriteTrace.
func (s *Suite) Tracer() *obs.Tracer {
	s.obsInit()
	return s.trace
}

// Metrics returns the suite's metrics registry. Every value in it is a
// commutative integer aggregate of deterministic per-call values, so
// its exposition (obs.WriteProm) is byte-identical whatever Threads is.
func (s *Suite) Metrics() *obs.Registry {
	s.obsInit()
	return s.metrics
}

// harnessLane returns the shared lane carrying capture/experiment spans.
func (s *Suite) harnessLane() *obs.Lane {
	s.obsInit()
	return s.hLane
}

// threads returns the effective worker-pool width.
func (s *Suite) threads() int {
	if s.Threads > 0 {
		return s.Threads
	}
	return runtime.GOMAXPROCS(0)
}

// capture forces one entry's workload. The captured world and the
// resulting workload's architecture models are wired to the suite's
// shared tracer and registry, and the whole capture is one span whose
// duration also feeds CaptureStats — wall-clock reaches only span
// timestamps and "# timing:" diagnostics, both of which StripTimings
// and the snapshot exclude from determinism comparisons.
func (s *Suite) capture(e *suiteEntry) *parallax.Workload {
	e.once.Do(func() {
		tr := s.Tracer()
		start := tr.Now()
		w := e.bench.Build(s.Scale)
		w.SetObs(tr, s.Metrics(), "engine/"+e.bench.Name)
		e.wl = parallax.Capture(e.bench.Name, w, 1, 3)
		e.wl.SetObs(tr, s.Metrics(), "arch/"+e.bench.Name)
		s.captureNanos.Add(s.harnessLane().Complete(tr.Span("capture:"+e.bench.Name), start))
		s.captured.Add(1)
	})
	return e.wl
}

// Workloads forces every pending capture — concurrently, one goroutine
// per benchmark, since the worlds are independent — and returns the
// workloads in paper order.
func (s *Suite) Workloads() []*parallax.Workload {
	out := make([]*parallax.Workload, len(s.entries))
	var wg sync.WaitGroup
	for i, e := range s.entries {
		wg.Add(1)
		go func(i int, e *suiteEntry) {
			defer wg.Done()
			out[i] = s.capture(e)
		}(i, e)
	}
	wg.Wait()
	return out
}

// NumBenchmarks returns the number of benchmarks in the suite without
// forcing any capture.
func (s *Suite) NumBenchmarks() int { return len(s.entries) }

// BenchNames returns the suite's benchmark names in order without
// forcing any capture.
func (s *Suite) BenchNames() []string {
	out := make([]string, len(s.entries))
	for i, e := range s.entries {
		out[i] = e.bench.Name
	}
	return out
}

// CaptureStats reports how many benchmarks have been captured so far
// and the cumulative per-benchmark capture time (CPU-side sum; with
// concurrent capture the wall-clock is lower).
func (s *Suite) CaptureStats() (n int, total time.Duration) {
	return int(s.captured.Load()), time.Duration(s.captureNanos.Load())
}

// byName finds (capturing if needed) a workload. A name outside the
// suite is a harness bug or a mis-restricted -bench flag and fails
// loudly rather than returning a stand-in workload.
func (s *Suite) byName(name string) *parallax.Workload {
	for _, e := range s.entries {
		if e.bench.Name == name {
			return s.capture(e)
		}
	}
	panic(fmt.Sprintf("exp: benchmark %q not in suite (have: %s)",
		name, strings.Join(s.BenchNames(), ", ")))
}

// pool runs fn(0..n-1) on at most s.threads() workers and waits for all
// of them. Callers write results into index-addressed slices so the
// rendered output is independent of scheduling order.
func (s *Suite) pool(n int, fn func(i int)) {
	s.Metrics().Add(s.poolTasks, int64(n))
	t := s.threads()
	if t > n {
		t = n
	}
	if t <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < t; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// grid runs fn over an rows x cols index grid on the worker pool and
// returns the results as [row][col] — the shape of most sweep tables.
func grid[T any](s *Suite, rows, cols int, fn func(r, c int) T) [][]T {
	out := make([][]T, rows)
	for r := range out {
		out[r] = make([]T, cols)
	}
	s.pool(rows*cols, func(i int) {
		r, c := i/cols, i%cols
		out[r][c] = fn(r, c)
	})
	return out
}

// Experiment is one runnable table/figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(s *Suite, w io.Writer)
}

// Registry lists all experiments in paper order.
var Registry = []Experiment{
	{"table3", "Table 3: average instructions per frame", (*Suite).Table3},
	{"table4", "Table 4: benchmark specs", (*Suite).Table4},
	{"fig2a", "Fig 2a: 1-core + 1MB L2 execution-time breakdown", (*Suite).Fig2a},
	{"fig2b", "Fig 2b: serial phases vs shared L2 size", (*Suite).Fig2b},
	{"fig3a", "Fig 3a: Broadphase with dedicated L2", (*Suite).Fig3a},
	{"fig3b", "Fig 3b: Narrowphase with dedicated L2", (*Suite).Fig3b},
	{"fig4a", "Fig 4a: Island Creation with dedicated L2", (*Suite).Fig4a},
	{"fig4b", "Fig 4b: Island Processing with dedicated L2", (*Suite).Fig4b},
	{"fig5a", "Fig 5a: Cloth with dedicated L2", (*Suite).Fig5a},
	{"fig5b", "Fig 5b: performance with processor scaling", (*Suite).Fig5b},
	{"fig6a", "Fig 6a: 4-core + 12MB execution-time breakdown", (*Suite).Fig6a},
	{"fig6b", "Fig 6b: L2 miss breakdown with thread scaling", (*Suite).Fig6b},
	{"fig7a", "Fig 7a: limit of coarse-grain parallelism", (*Suite).Fig7a},
	{"fig7b", "Fig 7b: instruction mix for all 5 phases", (*Suite).Fig7b},
	{"fig9a", "Fig 9a: coarse-grain vs fine-grain execution time", (*Suite).Fig9a},
	{"fig9b", "Fig 9b: instruction mix of fine-grain kernels", (*Suite).Fig9b},
	{"fig10a", "Fig 10a: IPC of fine-grain core types", (*Suite).Fig10a},
	{"fig10b", "Fig 10b: fine-grain cores required for 30 FPS", (*Suite).Fig10b},
	{"table7", "Table 7: FG tasks required to hide communication", (*Suite).Table7},
	{"fig11", "Fig 11: available fine-grain parallel tasks", (*Suite).Fig11},
	{"sec721", "Sec 7.1/8.2.1: dynamic vs static FG mapping", (*Suite).Sec721},
	{"sec822", "Sec 8.2.2: filtering small islands/cloths", (*Suite).Sec822},
	{"sec83", "Sec 8.3: Model 2 per-frame transfer", (*Suite).Sec83},
	// Future-work extensions and ablations beyond the published figures.
	{"ext-prefetch", "Extension: L2 prefetching (future work, sec 6.2)", (*Suite).ExtPrefetch},
	{"ext-sharedmem", "Extension: shared FG local memories (future work, sec 8.2.2)", (*Suite).ExtSharedMem},
	{"abl-partition", "Ablation: partitioned vs shared L2", (*Suite).AblPartition},
	{"abl-broadphase", "Ablation: sweep-and-prune vs incremental SAP vs spatial hash", (*Suite).AblBroadphase},
	{"abl-iterations", "Ablation: solver iteration count", (*Suite).AblIterations},
	{"abl-warmstart", "Ablation: contact warm starting vs iteration count", (*Suite).AblWarmstart},
	{"ref-system", "Bottom line: the proposed ParallAX system vs 30 FPS", (*Suite).RefSystem},
}

// IDs returns the experiment ids in order.
func IDs() []string {
	out := make([]string, len(Registry))
	for i, e := range Registry {
		out[i] = e.ID
	}
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// TimingPrefix marks harness timing lines in the output. They carry
// wall-clock measurements and are the only nondeterministic lines the
// harness emits; StripTimings removes them for output comparison.
const TimingPrefix = "# timing:"

// StripTimings removes "# timing:" lines, leaving the deterministic
// experiment sections.
func StripTimings(out string) string {
	lines := strings.Split(out, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if !strings.HasPrefix(l, TimingPrefix) {
			kept = append(kept, l)
		}
	}
	return strings.Join(kept, "\n")
}

// RunAll executes every experiment, concurrently up to Threads, and
// merges the sections to w in Registry order.
func (s *Suite) RunAll(w io.Writer) {
	s.Run(w, Registry)
}

// RunIDs executes the named experiments (concurrently up to Threads),
// merging output in the order given. Unknown ids are an error listing
// the valid ids, and then nothing runs.
func (s *Suite) RunIDs(w io.Writer, ids ...string) error {
	exps, err := Lookup(ids...)
	if err != nil {
		return err
	}
	s.Run(w, exps)
	return nil
}

// Lookup finds the named experiments, in the order given. Unknown ids
// are an error listing the valid ids.
func Lookup(ids ...string) ([]Experiment, error) {
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, ok := ByID(id)
		if !ok {
			return nil, fmt.Errorf("exp: unknown experiment %q (valid: %s)",
				id, strings.Join(IDs(), ", "))
		}
		exps[i] = e
	}
	return exps, nil
}

// Run renders each experiment into its own buffer on the worker pool,
// then writes the buffers in order with a per-experiment "# timing:"
// line. The sections' bytes are identical whatever Threads is; only the
// timing lines vary run to run. Each experiment is one "exp:<id>" span
// on the harness lane; the span's measured duration is also what the
// timing line prints, so the trace export and the text output share one
// source of truth.
func (s *Suite) Run(w io.Writer, exps []Experiment) {
	bufs := make([]bytes.Buffer, len(exps))
	durs := make([]int64, len(exps))
	s.pool(len(exps), func(i int) {
		tr := s.Tracer()
		start := tr.Now()
		e := exps[i]
		fmt.Fprintf(&bufs[i], "==== %s — %s ====\n", e.ID, e.Title)
		e.Run(s, &bufs[i])
		durs[i] = s.harnessLane().Complete(tr.Span("exp:"+e.ID), start)
	})
	for i, e := range exps {
		w.Write(bufs[i].Bytes())
		fmt.Fprintf(w, "%s exp=%s wall=%s\n\n", TimingPrefix, e.ID,
			time.Duration(durs[i]).Round(time.Microsecond))
	}
}
