package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// traceDoc mirrors the exported Chrome trace-event JSON for parsing.
type traceDoc struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Ph   string  `json:"ph"`
	Name string  `json:"name"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
}

func exportDoc(t *testing.T, tr *Tracer) traceDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v\n%s", err, buf.String())
	}
	return doc
}

// checkSpans checks one tid's events: every one is a finished span ("X")
// with a nonnegative duration, in nondecreasing start order.
func checkSpans(t *testing.T, events []traceEvent) {
	t.Helper()
	lastTs := -1.0
	for _, e := range events {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("event %+v: want an X event with dur >= 0", e)
		}
		if e.Ts < lastTs {
			t.Fatalf("timestamps not monotonic: %v after %v", e.Ts, lastTs)
		}
		lastTs = e.Ts
	}
}

func byTid(doc traceDoc) map[int][]traceEvent {
	out := map[int][]traceEvent{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		out[e.Tid] = append(out[e.Tid], e)
	}
	return out
}

func TestSpanRegistrationIdempotent(t *testing.T) {
	tr := NewTracer()
	a := tr.Span("step")
	b := tr.Span("broad")
	if a == b {
		t.Fatal("distinct names share an ID")
	}
	if got := tr.Span("step"); got != a {
		t.Fatalf("re-registering returned %d, want %d", got, a)
	}
}

func TestBeginEndDuration(t *testing.T) {
	tr := NewTracer()
	lane := tr.Lane("main", 64)
	id := tr.Span("work")
	lane.Begin(id)
	dur := lane.End(id)
	if dur < 0 {
		t.Fatalf("negative duration %d", dur)
	}
	events := byTid(exportDoc(t, tr))[0]
	if len(events) != 1 || events[0].Name != "work" {
		t.Fatalf("want one work span, got %+v", events)
	}
	checkSpans(t, events)
}

// TestNestedSpansExportBalanced: each step span is exported before, and
// encloses, the inner spans it contains.
func TestNestedSpansExportBalanced(t *testing.T) {
	tr := NewTracer()
	lane := tr.Lane("main", 256)
	step := tr.Span("step")
	inner := tr.Span("inner")
	for i := 0; i < 10; i++ {
		lane.Begin(step)
		for j := 0; j < 3; j++ {
			lane.Begin(inner)
			lane.End(inner)
		}
		lane.End(step)
	}
	events := byTid(exportDoc(t, tr))[0]
	if len(events) != 10+10*3 {
		t.Fatalf("got %d events, want %d", len(events), 10+10*3)
	}
	checkSpans(t, events)
	var parent traceEvent
	for i, e := range events {
		if e.Name == "step" {
			parent = e
			continue
		}
		if parent.Name == "" || e.Ts < parent.Ts || e.Ts+e.Dur > parent.Ts+parent.Dur+1e-6 {
			t.Fatalf("event %d %+v is not inside the step before it, %+v", i, e, parent)
		}
	}
}

// TestRingWraparound floods a small ring far past its capacity: the
// lane must keep accepting records without allocating or corrupting,
// and the export holds the newest spans the ring still has.
func TestRingWraparound(t *testing.T) {
	tr := NewTracer()
	lane := tr.Lane("wrap", 64) // ring of 64 spans
	id := tr.Span("s")
	const spans = 10_000
	for i := 0; i < spans; i++ {
		lane.Begin(id)
		lane.End(id)
	}
	if _, over := lane.Dropped(); over != spans-64 {
		t.Fatalf("ring overwrites = %d, want %d", over, spans-64)
	}
	events := byTid(exportDoc(t, tr))[0]
	if len(events) != 64 {
		t.Fatalf("exported %d events from a 64-slot ring", len(events))
	}
	checkSpans(t, events)
}

// TestLaneRingHoldsFinishedSpans: a ring of N records holds N spans,
// one record each.
func TestLaneRingHoldsFinishedSpans(t *testing.T) {
	tr := NewTracer()
	lane := tr.Lane("full", 64)
	id := tr.Span("s")
	for i := 0; i < 64; i++ {
		lane.Begin(id)
		lane.End(id)
	}
	if _, over := lane.Dropped(); over != 0 {
		t.Fatalf("64 spans in a 64-record ring overwrote %d", over)
	}
	events := byTid(exportDoc(t, tr))[0]
	if len(events) != 64 {
		t.Fatalf("exported %d spans, want 64", len(events))
	}
	checkSpans(t, events)
}

// TestRingWraparoundOpenSpan: an outer span whose children wrapped the
// ring is absent while open and exported once it closes, starting
// before every child still resident and ending after them.
func TestRingWraparoundOpenSpan(t *testing.T) {
	tr := NewTracer()
	lane := tr.Lane("wrap", 64)
	outer := tr.Span("outer")
	tick := tr.Span("tick")
	lane.Begin(outer)
	for i := 0; i < 500; i++ { // wrap the ring many times over
		lane.Begin(tick)
		lane.End(tick)
	}
	for _, e := range byTid(exportDoc(t, tr))[0] {
		if e.Name == "outer" {
			t.Fatal("outer span exported while still open")
		}
	}
	lane.End(outer)
	events := byTid(exportDoc(t, tr))[0]
	checkSpans(t, events)
	if len(events) != 64 || events[0].Name != "outer" {
		t.Fatalf("want outer first of 64 spans, got %d starting %+v", len(events), events[0])
	}
	for _, e := range events[1:] {
		if e.Ts < events[0].Ts || e.Ts+e.Dur > events[0].Ts+events[0].Dur+1e-6 {
			t.Fatalf("tick %+v outside outer %+v", e, events[0])
		}
	}
}

// TestExportWhileRecording: the lane's writer runs nested spans while
// another goroutine exports and reads the drop counters. Run it under
// -race.
func TestExportWhileRecording(t *testing.T) {
	tr := NewTracer()
	lane := tr.Lane("main", 64)
	outer, inner := tr.Span("outer"), tr.Span("inner")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			lane.Begin(outer)
			lane.Begin(inner)
			lane.End(inner)
			lane.End(outer)
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		checkSpans(t, byTid(exportDoc(t, tr))[0])
		if drops, _ := lane.Dropped(); drops != 0 {
			t.Fatalf("stack drops = %d with nesting depth 2", drops)
		}
	}
	if n, _ := tr.SpanTotal(outer); n != 2000 {
		t.Fatalf("SpanTotal(outer) = %d, want 2000", n)
	}
}

func TestCompleteEvents(t *testing.T) {
	tr := NewTracer()
	lane := tr.Lane("arch", 64)
	id := tr.Span("memsim")
	start := tr.Now()
	if d := lane.Complete(id, start); d < 0 {
		t.Fatalf("negative duration %d", d)
	}
	doc := exportDoc(t, tr)
	events := byTid(doc)[0]
	if len(events) != 1 || events[0].Ph != "X" || events[0].Name != "memsim" {
		t.Fatalf("want one X event, got %+v", events)
	}
	if events[0].Dur < 0 {
		t.Fatalf("X event carries negative dur %v", events[0].Dur)
	}
}

// TestConcurrentLanes exercises the intended concurrency model under
// -race: one lane per worker recording spans, plus a shared lane taking
// Complete records from every worker, plus shared registry counters.
func TestConcurrentLanes(t *testing.T) {
	tr := NewTracer()
	reg := NewRegistry()
	c := reg.Counter("test/ops")
	h := reg.Histogram("test/size", []int64{10, 100})
	shared := tr.Lane("shared", 1024)
	cid := tr.Span("complete")
	sid := tr.Span("work")

	const workers = 8
	lanes := make([]*Lane, workers)
	for i := range lanes {
		lanes[i] = tr.Lane("worker", 256)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				lanes[w].Begin(sid)
				reg.Add(c, 1)
				reg.ObserveInt(h, int64(i))
				start := tr.Now()
				shared.Complete(cid, start)
				lanes[w].End(sid)
			}
		}(w)
	}
	wg.Wait()
	if got := reg.CounterValue(c); got != workers*500 {
		t.Fatalf("counter = %d, want %d", got, workers*500)
	}
	for _, events := range byTid(exportDoc(t, tr)) {
		checkSpans(t, events)
	}
}

func TestSnapshotSortedAndOrderIndependent(t *testing.T) {
	build := func(order []string) *Registry {
		r := NewRegistry()
		for _, n := range order {
			r.Counter(n)
		}
		r.Add(r.Counter("b/two"), 2)
		r.Add(r.Counter("a/one"), 1)
		r.Add(r.Counter("c/three"), 3)
		return r
	}
	s1 := build([]string{"a/one", "b/two", "c/three"}).Snapshot()
	s2 := build([]string{"c/three", "a/one", "b/two"}).Snapshot()
	if s1 != s2 {
		t.Fatalf("snapshot depends on registration order:\n%s\nvs\n%s", s1, s2)
	}
	lines := strings.Split(strings.TrimSpace(s1), "\n")
	want := []string{"counter a/one 1", "counter b/two 2", "counter c/three 3"}
	for i, w := range want {
		if lines[i] != w {
			t.Fatalf("line %d = %q, want %q", i, lines[i], w)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("dof", []int64{8, 32, 128})
	for _, v := range []int64{1, 8, 9, 32, 33, 128, 129, 100000} {
		r.ObserveInt(h, v)
	}
	got := r.Snapshot()
	want := "hist dof le8:2 le32:2 le128:2 inf:2 total:8\n"
	if got != want {
		t.Fatalf("snapshot = %q, want %q", got, want)
	}
}

// TestNilSafety: the disabled tracer/registry is a nil pointer and
// every instrumented call site must be a no-op through it.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	var lane *Lane
	var reg *Registry
	if tr.Span("x") != 0 || tr.Now() != 0 || tr.Lane("x", 64) != nil {
		t.Fatal("nil tracer not inert")
	}
	lane.Begin(0)
	if lane.End(0) != 0 || lane.Complete(0, 0) != 0 {
		t.Fatal("nil lane not inert")
	}
	if s, o := lane.Dropped(); s != 0 || o != 0 {
		t.Fatal("nil lane reports drops")
	}
	reg.Add(0, 1)
	reg.SetGauge(0, 1)
	reg.ObserveInt(0, 1)
	if reg.CounterValue(0) != 0 || reg.Snapshot() != "" {
		t.Fatal("nil registry not inert")
	}
	if err := tr.WriteTrace(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteSnapshot(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestRecordingAllocFree pins the noalloc contract at runtime: Begin,
// End, Complete, Now, Add and ObserveInt must not touch the heap.
func TestRecordingAllocFree(t *testing.T) {
	tr := NewTracer()
	lane := tr.Lane("hot", 256)
	id := tr.Span("s")
	reg := NewRegistry()
	c := reg.Counter("c")
	h := reg.Histogram("h", []int64{10, 100})
	avg := testing.AllocsPerRun(200, func() {
		lane.Begin(id)
		reg.Add(c, 1)
		reg.ObserveInt(h, 42)
		start := tr.Now()
		lane.Complete(id, start)
		lane.End(id)
	})
	if avg != 0 {
		t.Fatalf("hot-path recording allocates %.1f objects/op, want 0", avg)
	}
}

// TestConcurrentRegistrationAndRecording pins that registration may
// interleave with recording: the harness captures benchmarks lazily,
// so a capture registers its metrics while other goroutines are
// already hammering previously registered counters. Registration must
// never move a live value (a slice append would, losing concurrent
// atomic adds on the old backing array).
func TestConcurrentRegistrationAndRecording(t *testing.T) {
	reg := NewRegistry()
	base := reg.Counter("base")
	hbase := reg.Histogram("hbase", []int64{10})

	const adds = 50000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < adds; i++ {
			reg.Add(base, 1)
			reg.ObserveInt(hbase, int64(i%20))
		}
	}()

	ids := make([]CounterID, 100)
	for i := range ids {
		ids[i] = reg.Counter(fmt.Sprintf("c%03d", i))
		reg.Add(ids[i], 2)
		if i < maxHists-1 {
			reg.Histogram(fmt.Sprintf("h%03d", i), []int64{1, 2})
		}
	}
	<-done

	if got := reg.CounterValue(base); got != adds {
		t.Errorf("base counter lost updates during registration: got %d, want %d", got, adds)
	}
	for i, id := range ids {
		if got := reg.CounterValue(id); got != 2 {
			t.Errorf("counter c%03d = %d, want 2", i, got)
		}
	}
	if want := fmt.Sprintf("hist hbase le10:%d inf:%d total:%d\n", adds/20*11, adds/20*9, adds); !strings.Contains(reg.Snapshot(), want) {
		t.Errorf("hbase lost samples: snapshot lacks %q:\n%s", want, reg.Snapshot())
	}
}
