package obs

import (
	"encoding/json"
	"flag"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parseFlags registers the shared flags on a private set and parses args.
func parseFlags(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFlagsRunWritesOutputs: after the mode returns, -trace holds
// parseable trace-event JSON with the run's spans, -metrics holds
// exactly the exposition /metrics serves — registry and series — and
// -memprofile is written.
func TestFlagsRunWritesOutputs(t *testing.T) {
	dir := t.TempDir()
	trace, metrics, mem := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.prom"), filepath.Join(dir, "mem.pprof")
	f := parseFlags(t, "-trace", trace, "-metrics", metrics, "-memprofile", mem)

	tr, reg, s := NewTracer(), NewRegistry(), NewSeries(64)
	code := f.Run(tr, reg, s, nil, func() int {
		l := tr.Lane("main", 64)
		id := tr.Span("step")
		l.Begin(id)
		l.End(id)
		reg.Add(reg.Counter("engine/steps"), 3)
		s.Set(s.Channel("kinetic_energy"), 42)
		s.Advance()
		return 0
	})
	if code != 0 {
		t.Fatalf("Run = %d, want 0", code)
	}

	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	found := false
	for _, e := range doc.TraceEvents {
		found = found || e.Name == "step"
	}
	if !found {
		t.Errorf("trace has no \"step\" event:\n%s", data)
	}

	want := promOutput(t, reg, s)
	if got, err := os.ReadFile(metrics); err != nil || string(got) != want ||
		!strings.Contains(want, "parallax_series_kinetic_energy 42\n") {
		t.Errorf("metrics file = %q (%v), want the exposition %q", got, err, want)
	}
	if fi, err := os.Stat(mem); err != nil || fi.Size() == 0 {
		t.Errorf("heap profile: %v (empty or missing)", err)
	}
}

// TestFlagsRunKeepsProfileOnErrorExit: a mode that leaves early with a
// non-zero code (I/O error, detector trip) still gets its CPU profile
// stopped and flushed, and keeps its exit code.
func TestFlagsRunKeepsProfileOnErrorExit(t *testing.T) {
	cpu := filepath.Join(t.TempDir(), "cpu.pprof")
	f := parseFlags(t, "-cpuprofile", cpu)
	if code := f.Run(nil, nil, nil, nil, func() int { return 3 }); code != 3 {
		t.Fatalf("Run = %d, want the mode's 3", code)
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Fatalf("CPU profile after an early return: %v (empty or missing)", err)
	}
}

// TestFlagsRunFailsOnBusyPort: a -serve or -pprof address that cannot be
// bound fails Run with exit code 1 before the mode runs, and no CPU
// profile is left running.
func TestFlagsRunFailsOnBusyPort(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	for _, flagName := range []string{"-serve", "-pprof"} {
		t.Run(flagName, func(t *testing.T) {
			cpu := filepath.Join(t.TempDir(), "cpu.pprof")
			f := parseFlags(t, flagName, held.Addr().String(), "-cpuprofile", cpu)
			ran := false
			if code := f.Run(NewTracer(), NewRegistry(), nil, nil, func() int { ran = true; return 0 }); code != 1 || ran {
				t.Fatalf("Run = %d with the mode run: %t; want 1 and the mode never run", code, ran)
			}
			if _, err := os.Stat(cpu); !os.IsNotExist(err) {
				t.Errorf("CPU profile file after a failed start: %v, want none", err)
			}
		})
	}
}

// TestFlagsRunReportsWriteFailure: an output that cannot be written
// turns a successful run into exit code 1, and the other outputs are
// still attempted.
func TestFlagsRunReportsWriteFailure(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.txt")
	f := parseFlags(t, "-trace", filepath.Join(dir, "missing", "t.json"), "-metrics", metrics)
	if code := f.Run(NewTracer(), NewRegistry(), nil, nil, func() int { return 0 }); code != 1 {
		t.Fatalf("Run = %d, want 1", code)
	}
	if _, err := os.Stat(metrics); err != nil {
		t.Errorf("metrics not written after the trace failed: %v", err)
	}
}
