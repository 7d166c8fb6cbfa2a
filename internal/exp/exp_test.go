package exp

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"strings"
	"testing"
)

// smallSuite shares one scaled-down capture across the package's tests.
var smallSuite *Suite

func suiteForTest(t *testing.T) *Suite {
	t.Helper()
	if smallSuite == nil {
		smallSuite = NewSuite(0.15)
	}
	return smallSuite
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table3", "table4", "fig2a", "fig2b", "fig3a", "fig3b", "fig4a",
		"fig4b", "fig5a", "fig5b", "fig6a", "fig6b", "fig7a", "fig7b",
		"fig9a", "fig9b", "fig10a", "fig10b", "table7", "fig11",
		"sec721", "sec822", "sec83",
		"ext-prefetch", "ext-sharedmem",
		"abl-partition", "abl-broadphase", "abl-iterations", "abl-warmstart",
		"ref-system",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, got[i], want[i])
		}
	}
	if _, ok := ByID("fig10b"); !ok {
		t.Error("ByID broken")
	}
	if _, ok := ByID("nonsense"); ok {
		t.Error("ByID found nonsense")
	}
}

func TestAllExperimentsProduceOutput(t *testing.T) {
	s := suiteForTest(t)
	for _, e := range Registry {
		var buf bytes.Buffer
		e.Run(s, &buf)
		out := buf.String()
		if len(out) < 40 {
			t.Errorf("%s produced almost no output: %q", e.ID, out)
		}
		if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
			t.Errorf("%s output contains NaN/Inf:\n%s", e.ID, out)
		}
	}
}

func TestFig2aEveryBenchmarkListed(t *testing.T) {
	s := suiteForTest(t)
	var buf bytes.Buffer
	s.Fig2a(&buf)
	for _, n := range Names() {
		if !strings.Contains(buf.String(), n) {
			t.Errorf("fig2a missing benchmark %s", n)
		}
	}
}

func TestFig10aShowsAllCores(t *testing.T) {
	s := suiteForTest(t)
	var buf bytes.Buffer
	s.Fig10a(&buf)
	for _, name := range []string{"Desktop", "Console", "Shader", "Limit"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("fig10a missing %s:\n%s", name, buf.String())
		}
	}
}

func TestTable7ShowsInterconnects(t *testing.T) {
	s := suiteForTest(t)
	var buf bytes.Buffer
	s.Table7(&buf)
	for _, name := range []string{"On-chip", "HTX", "PCIe"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("table7 missing %s", name)
		}
	}
}

func TestNewSuiteOf(t *testing.T) {
	s, err := NewSuiteOf(0.1, "Periodic", "Ragdoll")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Workloads()); got != 2 {
		t.Fatalf("suite of 2 has %d workloads", got)
	}
	if s.byName("Periodic").Name != "Periodic" {
		t.Error("byName broken")
	}
}

func TestNewSuiteOfUnknownName(t *testing.T) {
	_, err := NewSuiteOf(0.1, "Periodic", "NoSuchBench")
	if err == nil {
		t.Fatal("NewSuiteOf accepted an unknown benchmark name")
	}
	if !strings.Contains(err.Error(), "NoSuchBench") || !strings.Contains(err.Error(), "Mix") {
		t.Errorf("error should name the bad benchmark and list valid ones: %v", err)
	}
}

func TestByNameMissingPanics(t *testing.T) {
	s, err := NewSuiteOf(0.1, "Periodic")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("byName on a missing benchmark must fail loudly, not fall back")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "Missing") || !strings.Contains(msg, "Periodic") {
			t.Errorf("panic should name the missing benchmark and the suite's contents: %v", msg)
		}
	}()
	s.byName("Missing")
}

func TestLazyCapture(t *testing.T) {
	s := NewSuite(0.1)
	if n, _ := s.CaptureStats(); n != 0 {
		t.Fatalf("NewSuite captured %d benchmarks eagerly; capture must be lazy", n)
	}
	s.byName("Periodic")
	if n, _ := s.CaptureStats(); n != 1 {
		t.Fatalf("byName captured %d benchmarks, want exactly 1", n)
	}
	s.byName("Periodic") // memoized: no second capture
	if n, _ := s.CaptureStats(); n != 1 {
		t.Fatalf("repeated byName re-captured: %d captures", n)
	}
	if got := len(s.Workloads()); got != len(Names()) {
		t.Fatalf("Workloads returned %d workloads, want %d", got, len(Names()))
	}
	if n, _ := s.CaptureStats(); n != len(Names()) {
		t.Fatalf("Workloads captured %d benchmarks, want all %d", n, len(Names()))
	}
}

// TestRunIDsUnknown: a bad experiment id is an error listing valid ids.
func TestRunIDsUnknown(t *testing.T) {
	s := NewSuite(0.1)
	err := s.RunIDs(io.Discard, "fig2a", "not-an-experiment")
	if err == nil {
		t.Fatal("RunIDs accepted an unknown experiment id")
	}
	if !strings.Contains(err.Error(), "not-an-experiment") || !strings.Contains(err.Error(), "fig10b") {
		t.Errorf("error should name the bad id and list valid ones: %v", err)
	}
}

// detIDs is the fast experiment subset of the golden determinism test:
// it exercises each workload's shared memory-simulation memo from
// several experiments at once, the per-workload pools, the grid sweeps,
// byName-only experiments and the engine-stepping ablations.
var detIDs = []string{
	"table3", "fig2a", "fig2b", "fig5b", "fig6b", "fig10b",
	"abl-partition", "abl-warmstart", "ref-system",
}

// TestParallelOutputDeterministic pins the tentpole invariant: the
// parallel harness emits byte-identical output to a Threads=1 run,
// excluding the "# timing:" lines. Run under -race in CI.
func TestParallelOutputDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(threads int) string {
		s := NewSuite(0.25)
		s.Threads = threads
		var buf bytes.Buffer
		if err := s.RunIDs(&buf, detIDs...); err != nil {
			t.Fatal(err)
		}
		return StripTimings(buf.String())
	}
	serial := run(1)
	parallel := run(8)
	if serial != parallel {
		t.Fatalf("parallel output differs from serial run:\n--- threads=1 ---\n%s\n--- threads=8 ---\n%s",
			serial, parallel)
	}
	if len(serial) < 400 {
		t.Fatalf("suspiciously small output: %q", serial)
	}
}

func TestStripTimings(t *testing.T) {
	in := "row 1\n# timing: exp=fig2a wall=3ms\nrow 2\n"
	want := "row 1\nrow 2\n"
	if got := StripTimings(in); got != want {
		t.Errorf("StripTimings = %q, want %q", got, want)
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := suiteForTest(t)
	var buf bytes.Buffer
	s.RunAll(&buf)
	for _, e := range Registry {
		if !strings.Contains(buf.String(), "==== "+e.ID) {
			t.Errorf("RunAll missing %s", e.ID)
		}
	}
	// The bytes themselves: every experiment's timing-stripped output on
	// the scale-0.15 suite, as printed at PR 16 (commit da7e6a8). A change
	// to the engine's physics or to a model's arithmetic moves this and
	// must say so; a refactor or a host-time optimisation must not.
	const wantCRC = 1132142729
	if runtime.GOARCH != "amd64" {
		t.Logf("output CRC not compared on %s: the constant was taken on amd64, and other ports may fuse or round floating-point operations differently", runtime.GOARCH)
	} else if got := crc32.ChecksumIEEE([]byte(StripTimings(buf.String()))); got != wantCRC {
		t.Errorf("RunAll output CRC-32 = %d, want %d: the experiments print different bytes", got, wantCRC)
	}
}
