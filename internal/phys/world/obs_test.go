package world

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/parallax-arch/parallax/internal/obs"
)

// TestStepTraceCoversPhases steps a traced world and checks the export
// is valid Chrome trace JSON whose spans cover all five phases plus the
// per-worker task spans — at one thread too, where every item runs
// inline on the calling goroutine and must still record its span.
func TestStepTraceCoversPhases(t *testing.T) {
	for _, threads := range []int{1, 2} {
		tr := obs.NewTracer()
		reg := obs.NewRegistry()
		w := detWorld(threads)
		w.SetObs(tr, reg, "det")
		for i := 0; i < 5; i++ {
			w.Step()
		}
		var buf bytes.Buffer
		if err := tr.WriteTrace(&buf); err != nil {
			t.Fatalf("threads=%d: WriteTrace: %v", threads, err)
		}
		var doc struct {
			TraceEvents []struct {
				Ph   string `json:"ph"`
				Name string `json:"name"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("threads=%d: trace is not valid JSON: %v", threads, err)
		}
		seen := map[string]bool{}
		for _, e := range doc.TraceEvents {
			if e.Ph == "X" {
				seen[e.Name] = true
			}
		}
		for _, want := range []string{
			"step", "broadphase", "narrowphase", "island-creation",
			"island-processing", "integrate", "cloth", "island", "solve",
			"cloth-object", "narrow-chunk", "refresh-chunk", "sweep-chunk",
			"edge-chunk", "integrate-chunk", "sync-chunk",
		} {
			if !seen[want] {
				t.Errorf("threads=%d: trace missing span %q (have %v)", threads, want, seen)
			}
		}
		// The tracer's cumulative totals must agree with the stepping we
		// did: exactly one matched "step" span per Step call.
		if n, ns := tr.SpanTotal(tr.Span("step")); n != 5 || ns <= 0 {
			t.Errorf("threads=%d: SpanTotal(step) = (%d, %d), want 5 matched spans with positive time", threads, n, ns)
		}
	}
}

// TestEveryPhaseDispatches pins the phase enum against its two
// consumers: every value has a phaseSpan entry naming an item span, and
// runItem's switch (whose default panics) has a case for it.
func TestEveryPhaseDispatches(t *testing.T) {
	for i, d := range spanTable {
		if d.name == "" {
			t.Errorf("span %d has no spanTable entry", i)
		}
	}
	w := detWorld(1)
	w.Step() // leaves island 0 and cloth 0 in the scratch for the item calls
	w.scratch.chunkN = 0
	for ph := phase(0); ph < numPhases; ph++ {
		if sp := phaseSpan[ph]; sp == spanStep || spanTable[sp].series != "" {
			t.Errorf("phase %d: phaseSpan names %q, not an item span", ph, spanTable[sp].name)
		}
		w.runItem(0, ph, 0) // chunk 0 of zero elements for the chunked phases
	}
}

// TestStepMetricsMatchProfile cross-checks the harvested counters
// against an independently accumulated profile.
func TestStepMetricsMatchProfile(t *testing.T) {
	reg := obs.NewRegistry()
	w := detWorld(1)
	w.SetObs(nil, reg, "")
	steps, pairs, contacts := 0, 0, 0
	for i := 0; i < 20; i++ {
		w.Step()
		steps++
		pairs += w.Profile.Pairs
		contacts += w.Profile.Contacts
	}
	if got := reg.CounterValue(reg.Counter("engine/steps")); got != int64(steps) {
		t.Errorf("engine/steps = %d, want %d", got, steps)
	}
	if got := reg.CounterValue(reg.Counter("engine/pairs")); got != int64(pairs) {
		t.Errorf("engine/pairs = %d, want %d", got, pairs)
	}
	if got := reg.CounterValue(reg.Counter("engine/contacts")); got != int64(contacts) {
		t.Errorf("engine/contacts = %d, want %d", got, contacts)
	}
	var sb strings.Builder
	if err := obs.WriteProm(&sb, reg, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "# TYPE parallax_engine_island_dof histogram\n") {
		t.Errorf("exposition missing the island DOF histogram:\n%s", sb.String())
	}
}

// TestTracedStepThreadGrowth raises the thread count after SetObs: lanes
// must grow and tracing must keep working (no panics, spans on new
// workers).
func TestTracedStepThreadGrowth(t *testing.T) {
	tr := obs.NewTracer()
	w := detWorld(1)
	w.SetObs(tr, nil, "grow")
	for i := 0; i < 3; i++ {
		w.Step()
	}
	w.SetThreads(4)
	for i := 0; i < 3; i++ {
		w.Step()
	}
	if len(w.obsLanes) != 4 {
		t.Fatalf("have %d lanes after raising threads to 4", len(w.obsLanes))
	}
}

// TestSetThreadsGrowsTraceLanesImmediately: the lanes for new workers
// exist as soon as SetThreads returns — Step never has to grow them —
// and lowering the thread count keeps the lanes already made.
func TestSetThreadsGrowsTraceLanesImmediately(t *testing.T) {
	w := detWorld(2)
	w.SetObs(obs.NewTracer(), nil, "grow")
	if len(w.obsLanes) != 2 {
		t.Fatalf("have %d lanes after SetObs at 2 threads", len(w.obsLanes))
	}
	w.SetThreads(3)
	if len(w.obsLanes) != 3 {
		t.Fatalf("have %d lanes right after SetThreads(3), before any step", len(w.obsLanes))
	}
	w.SetThreads(1)
	w.Step()
	if len(w.obsLanes) != 3 {
		t.Fatalf("have %d lanes after lowering threads to 1, want the 3 already made", len(w.obsLanes))
	}
	w.SetObs(nil, nil, "")
	w.SetThreads(4) // no tracer: no lanes
	if len(w.obsLanes) != 0 {
		t.Fatalf("have %d lanes with tracing detached", len(w.obsLanes))
	}
	w.SetThreads(1)
}

// TestStepSteadyStateAllocsTraced is the tentpole acceptance check:
// steady-state Step stays allocation-free with tracing AND metrics
// enabled — recording is ring-buffer writes and atomic adds only.
func TestStepSteadyStateAllocsTraced(t *testing.T) {
	for _, th := range []int{1, 2} {
		w := detWorld(th)
		w.SetObs(obs.NewTracer(), obs.NewRegistry(), "alloc")
		for i := 0; i < 150; i++ {
			w.Step()
		}
		avg := testing.AllocsPerRun(50, func() { w.Step() })
		if avg != 0 {
			t.Errorf("threads=%d traced: steady-state Step allocates %.1f objects/op, want 0", th, avg)
		}
	}
}
