package exp

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"github.com/parallax-arch/parallax/internal/obs"
)

// obsIDs is the experiment subset of the observability tests: fig2a
// drives the CG memory simulation (memsim spans, cache counters),
// fig10b the FG model (fg-model spans, link counters) and sec721 the
// arbiter simulation (queue-depth metrics) — all on the Mix benchmark,
// so a single-benchmark suite exercises every instrumented layer.
var obsIDs = []string{"fig2a", "fig10b", "sec721"}

func obsSuite(t *testing.T, threads int) *Suite {
	t.Helper()
	s, err := NewSuiteOf(0.25, "Mix")
	if err != nil {
		t.Fatal(err)
	}
	s.Threads = threads
	if err := s.RunIDs(io.Discard, obsIDs...); err != nil {
		t.Fatal(err)
	}
	return s
}

type suiteTraceEvent struct {
	Ph   string  `json:"ph"`
	Name string  `json:"name"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
}

type suiteTraceDoc struct {
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	TraceEvents     []suiteTraceEvent `json:"traceEvents"`
}

// TestSuiteTraceCoversRun is the acceptance-criteria trace test: a
// scale-0.25 suite run exports valid Chrome trace-event JSON whose
// spans cover all five engine phases, the architecture models, and the
// harness's own capture/experiment spans.
func TestSuiteTraceCoversRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := obsSuite(t, 4)

	var buf bytes.Buffer
	if err := s.Tracer().WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc suiteTraceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	// Every span is one X event; each lane exports its spans by start.
	seen := map[string]bool{}
	lastTs := map[int]float64{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		seen[e.Name] = true
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("event %+v: want an X event with dur >= 0", e)
		}
		if ts, ok := lastTs[e.Tid]; ok && e.Ts < ts {
			t.Fatalf("tid %d timestamps not monotonic: %f after %f (%s)", e.Tid, e.Ts, ts, e.Name)
		}
		lastTs[e.Tid] = e.Ts
	}

	// The five engine pipeline phases, the architecture models' spans, and
	// the harness's own spans must all appear in one export.
	want := []string{
		"step", "broadphase", "narrowphase", "island-creation",
		"island-processing", "cloth",
		"memsim", "l1trace", "fg-model",
		"capture:Mix", "exp:fig2a", "exp:fig10b", "exp:sec721",
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("trace missing span %q", name)
		}
	}
}

// TestSuiteMetricsThreadCountDeterminism pins satellite (d): the
// metrics exposition of a run — engine counters, cache/link/arbiter
// model counters, memo and harness pool counters — is byte-identical
// whatever the harness thread count is.
func TestSuiteMetricsThreadCountDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	exposition := func(threads int) string {
		var sb strings.Builder
		if err := obs.WriteProm(&sb, obsSuite(t, threads).Metrics(), nil); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	serial := exposition(1)
	parallel := exposition(8)
	if serial != parallel {
		t.Fatalf("metrics exposition differs across thread counts:\n--- threads=1 ---\n%s\n--- threads=8 ---\n%s",
			serial, parallel)
	}
	for _, name := range []string{
		"parallax_engine_steps_total",
		"parallax_arch_cache_l1_hits_total",
		"parallax_arch_link_compute_ns_total",
		"parallax_arch_arbiter_tasks_run_total",
		"parallax_arch_arbiter_max_queue_depth",
		"parallax_harness_pool_tasks_total",
		"parallax_arch_memsim_requests_total",
		"parallax_arch_memsim_computed_total",
		"parallax_arch_l1trace_requests_total",
		"parallax_arch_l1trace_computed_total",
		"parallax_arch_l1trace_bytes_total",
		"parallax_engine_island_dof_count",
	} {
		if !strings.Contains(serial, "\n"+name+" ") {
			t.Errorf("exposition missing %q:\n%s", name, serial)
		}
	}
}
