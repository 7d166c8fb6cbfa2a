package obs

import (
	"strconv"
	"strings"
	"testing"
)

// TestPublishRingOverwriteCounter forces a lane ring wraparound and
// asserts the loss shows up in the metrics snapshot: silent trace loss
// must be visible in CI artifacts.
func TestPublishRingOverwriteCounter(t *testing.T) {
	tr := NewTracer()
	l := tr.Lane("main", 64) // minimum ring: 64 spans
	id := tr.Span("step")
	for i := 0; i < 100; i++ { // 100 spans > 64: wraps
		l.Begin(id)
		l.End(id)
	}
	_, over := l.Dropped()
	if over == 0 {
		t.Fatal("expected ring overwrites after 100 spans in a 64-slot ring")
	}

	reg := NewRegistry()
	tr.Publish(reg)
	snap := reg.Snapshot()
	if !strings.Contains(snap, "gauge trace/ring_overwrites "+strconv.FormatInt(over, 10)) {
		t.Fatalf("ring overwrite counter missing from snapshot (want %d):\n%s", over, snap)
	}
	if !strings.Contains(snap, "gauge trace/stack_drops 0") {
		t.Fatalf("stack drop counter missing from snapshot:\n%s", snap)
	}
	// Span totals: 100 matched step spans.
	if !strings.Contains(snap, "gauge trace/span/step/count 100") {
		t.Fatalf("span totals missing from snapshot:\n%s", snap)
	}
	if !strings.Contains(snap, "gauge trace/span/step/ns ") {
		t.Fatalf("span duration total missing from snapshot:\n%s", snap)
	}
}

// TestPublishStackDropCounter overflows the open-span stack and asserts
// the drop count surfaces.
func TestPublishStackDropCounter(t *testing.T) {
	tr := NewTracer()
	l := tr.Lane("main", 2048)
	id := tr.Span("deep")
	for i := 0; i < maxOpenSpans+5; i++ {
		l.Begin(id)
	}
	drops, _ := l.Dropped()
	if drops != 5 {
		t.Fatalf("stack drops = %d, want 5", drops)
	}
	reg := NewRegistry()
	tr.Publish(reg)
	if !strings.Contains(reg.Snapshot(), "gauge trace/stack_drops 5") {
		t.Fatalf("stack drops missing from snapshot:\n%s", reg.Snapshot())
	}
}

// TestPublishSkipsIdleSpans pins that registering a span that never
// finishes adds no snapshot lines, and that Publish sums across lanes.
func TestPublishSkipsIdleSpansAndSumsLanes(t *testing.T) {
	tr := NewTracer()
	tr.Span("idle")
	busy := tr.Span("busy")
	for i := 0; i < 2; i++ {
		l := tr.Lane("w", 64)
		l.Begin(busy)
		l.End(busy)
	}
	reg := NewRegistry()
	tr.Publish(reg)
	snap := reg.Snapshot()
	if strings.Contains(snap, "trace/span/idle") {
		t.Fatalf("idle span leaked into snapshot:\n%s", snap)
	}
	if !strings.Contains(snap, "gauge trace/span/busy/count 2") {
		t.Fatalf("cross-lane span count wrong:\n%s", snap)
	}
	// Publish is idempotent-safe: calling again just overwrites gauges.
	tr.Publish(reg)
	if !strings.Contains(reg.Snapshot(), "gauge trace/span/busy/count 2") {
		t.Fatal("second Publish changed the totals")
	}
}

func TestPublishNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Publish(NewRegistry()) // no-op
	NewTracer().Publish(nil)  // no-op
}
