// Package obs is the engine's zero-allocation observability layer: a
// span tracer backed by preallocated per-lane ring buffers, a typed
// metrics registry (counters, gauges, fixed-bucket histograms) indexed
// by pre-registered IDs, and one exporter per sink — Chrome trace-event
// JSON (loadable in Perfetto) for the spans and the tracer's own loss
// counters and span totals, Prometheus text exposition for the metrics.
//
// The hot-path contract (see DESIGN.md "Observability"):
//
//   - Recording a span (Lane.Begin / Lane.End / Lane.Complete) or a
//     metric sample (Registry.Add / Registry.ObserveInt) never touches
//     the heap: storage is preallocated at registration time and a
//     record is one fixed-size write — a finished span into a ring, a
//     sample into a slice-indexed counter. The repo's own analyzer
//     enforces this: the record methods are reached from the engine's
//     paraxlint roots (or, like Lane.Complete, are noalloc roots).
//   - Every record method is nil-receiver safe, so instrumented code
//     needs no "is tracing on?" branches: a disabled tracer is a nil
//     pointer and the call is a single predicted-taken test.
//   - Span names and metric IDs are registered up front (Tracer.Span,
//     Registry.Counter, ...) on mutex-protected cold paths; the hot
//     path deals only in integer IDs.
//
// Timestamps are wall-clock and therefore nondeterministic; spans are
// diagnostics and must never feed experiment output. The metrics
// registry holds only order-independent integer aggregates, so its
// exposition is byte-identical whatever the thread count.
package obs

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID names a registered span type.
type SpanID int32

// maxOpenSpans bounds a lane's open-span stack (nesting depth).
const maxOpenSpans = 32

// DefaultLaneEvents is the default ring capacity per lane.
const DefaultLaneEvents = 4096

// maxSpanTotals bounds the per-span cumulative totals table. A fixed
// array — not a grown slice — so registering a span never moves the
// storage that hot-path atomic adds race against.
const maxSpanTotals = 512

// spanTotal accumulates the matched-span count and summed duration for
// one span ID across all lanes. Updated with atomics from the record
// hot path; read with SpanTotal.
type spanTotal struct {
	count atomic.Int64
	ns    atomic.Int64
}

// event is one fixed-size ring record: a finished span.
type event struct {
	id    SpanID
	start int64 // nanoseconds since tracer start
	dur   int64
}

type openSpan struct {
	id SpanID
	ts int64
}

// Tracer owns the span-name table and the lanes. One Tracer is shared
// by the engine, the architecture models and the harness so a single
// export shows the whole pipeline on one timeline.
type Tracer struct {
	mu      sync.Mutex
	start   time.Time
	names   []string
	nameIdx map[string]SpanID
	lanes   []*Lane
	totals  [maxSpanTotals]spanTotal
}

// NewTracer returns an enabled tracer. A nil *Tracer is the disabled
// tracer: every method on it (and on its nil lanes) is a no-op.
func NewTracer() *Tracer {
	return &Tracer{
		start:   time.Now(), //paraxlint:allow(time) span timestamps are diagnostics, never experiment output
		nameIdx: make(map[string]SpanID),
	}
}

// Span registers (or finds) a span name and returns its ID. Cold path:
// call at setup time, not per record.
func (t *Tracer) Span(name string) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.nameIdx[name]; ok {
		return id
	}
	id := SpanID(len(t.names))
	t.names = append(t.names, name)
	t.nameIdx[name] = id
	return id
}

// Lane allocates a new lane (one Perfetto track) with a ring of at
// least `events` finished spans (rounded up to a power of two, minimum
// 64). Begin and End belong to the lane's one writer — one lane per
// worker goroutine — while Complete takes the lane mutex and may come
// from any goroutine (the arch models record spans from pool workers).
func (t *Tracer) Lane(name string, events int) *Lane {
	if t == nil {
		return nil
	}
	if events < 64 {
		events = 64
	}
	size := 64
	for size < events {
		size *= 2
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &Lane{
		tr:   t,
		id:   int32(len(t.lanes)),
		name: name,
		buf:  make([]event, size),
		mask: int64(size - 1),
	}
	t.lanes = append(t.lanes, l)
	return l
}

// Now returns nanoseconds since the tracer started (0 for a nil
// tracer). Pair with Lane.Complete for spans measured by the caller.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	//paraxlint:allow(parsafe) monotonic clock read for span timestamps: wait-free, no shared state
	return time.Since(t.start).Nanoseconds()
}

// Lane is one track of finished-span records with a private ring buffer.
type Lane struct {
	mu   sync.Mutex // guards buf and head against WriteTrace and Dropped
	tr   *Tracer
	id   int32
	name string
	buf  []event
	mask int64
	head int64 // total records ever written; buf[head&mask] is next

	// The open-span stack is the writer's alone: only Begin and End
	// touch it, so it needs no lock.
	stack [maxOpenSpans]openSpan
	depth int32
	// dropped counts Begins whose stack slot was exhausted.
	dropped atomic.Int64
}

// Begin opens a span on this lane. Nothing is recorded until its End.
func (l *Lane) Begin(id SpanID) {
	if l == nil {
		return
	}
	if l.depth == maxOpenSpans {
		l.dropped.Add(1)
		return
	}
	l.stack[l.depth] = openSpan{id: id, ts: l.tr.Now()}
	l.depth++
}

// End closes and records the innermost open span if it carries this ID,
// and returns its duration in nanoseconds (0, and nothing recorded, if
// it does not: the matching Begin was lost to stack overflow).
func (l *Lane) End(id SpanID) int64 {
	if l == nil || l.depth == 0 || l.stack[l.depth-1].id != id {
		return 0
	}
	l.depth--
	start := l.stack[l.depth].ts
	dur := l.tr.Now() - start
	l.record(id, start, dur)
	return dur
}

// Complete records a whole span in one write: started at startNanos
// (from Tracer.Now), ending now. Safe for lanes shared across
// goroutines, where Begin/End nesting cannot be guaranteed.
//
//paraxlint:noalloc
func (l *Lane) Complete(id SpanID, startNanos int64) int64 {
	if l == nil {
		return 0
	}
	dur := l.tr.Now() - startNanos
	if dur < 0 {
		dur = 0
	}
	l.record(id, startNanos, dur)
	return dur
}

// record writes one finished span into the ring and the totals. It is
// the only place recording takes the lane mutex.
func (l *Lane) record(id SpanID, start, dur int64) {
	//paraxlint:allow(parsafe) per-lane mutex held for one ring write; an engine lane contends only with WriteTrace and Dropped
	l.mu.Lock()
	l.buf[l.head&l.mask] = event{id: id, start: start, dur: dur}
	l.head++
	//paraxlint:allow(parsafe) per-lane mutex held for one ring write; an engine lane contends only with WriteTrace and Dropped
	l.mu.Unlock()
	l.tr.addTotal(id, dur)
}

// addTotal folds one finished span into the cumulative totals table.
func (t *Tracer) addTotal(id SpanID, dur int64) {
	if id < 0 || int(id) >= maxSpanTotals {
		return
	}
	tt := &t.totals[id]
	tt.count.Add(1)
	tt.ns.Add(dur)
}

// SpanTotal returns the cumulative count and summed duration (in
// nanoseconds) of finished spans with this ID across all lanes — Ends
// that matched their Begin, plus Completes. The totals are wall-clock
// aggregates for performance reporting (e.g. per-phase time in a
// benchmark run), not experiment output. Zero for a nil tracer or an
// unregistered ID.
func (t *Tracer) SpanTotal(id SpanID) (count, nanos int64) {
	if t == nil || id < 0 || int(id) >= maxSpanTotals {
		return 0, 0
	}
	tt := &t.totals[id]
	return tt.count.Load(), tt.ns.Load()
}

// Dropped reports how many Begins overflowed the open-span stack, and
// how many finished spans the ring has overwritten by wraparound.
func (l *Lane) Dropped() (stackDrops, ringOverwrites int64) {
	if l == nil {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	over := l.head - int64(len(l.buf))
	if over < 0 {
		over = 0
	}
	return l.dropped.Load(), over
}

// snapshotEvents copies the lane's resident spans in export order: by
// start, the longer first on ties, so a parent precedes its children.
// Copying newest first breaks exact ties the same way, since a parent
// is recorded after its children.
func (l *Lane) snapshotEvents() []event {
	l.mu.Lock() // copy under the lock, sort after it
	n := min(l.head, int64(len(l.buf)))
	out := make([]event, 0, n)
	for i := l.head - 1; i >= l.head-n; i-- {
		out = append(out, l.buf[i&l.mask])
	}
	l.mu.Unlock()
	slices.SortStableFunc(out, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(b.dur, a.dur))
	})
	return out
}
