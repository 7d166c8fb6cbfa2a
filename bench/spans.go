package main

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/parallax-arch/parallax/internal/obs"
)

// spanLog is the benchmark's own tracing: spans around the calls into each
// layer, recorded from this directory's files and kept in memory until the
// run ends. Every span knows the span that caused it, so a layer's self
// time (its duration minus what its children cover) can be computed; the
// same spans go to an obs.Tracer lane for the Perfetto export.
//
// A spanLog is single-goroutine. Concurrent recorders (the load
// generator's connections) each get their own via newLane.
type spanLog struct {
	tr   *obs.Tracer
	lane *obs.Lane
	ids  map[string]obs.SpanID
	recs []spanRec
	open []int32 // stack of indices into recs
}

type spanRec struct {
	name       string
	parent     int32 // index of the causing span, -1 for a root
	start, end int64 // ns on the tracer's clock; end == 0 while open
}

func newSpanLog(tr *obs.Tracer, lane string) *spanLog {
	return &spanLog{tr: tr, lane: tr.Lane(lane, 1<<16), ids: make(map[string]obs.SpanID)}
}

// newLane returns a recorder on the same tracer for another goroutine.
func (l *spanLog) newLane(name string) *spanLog { return newSpanLog(l.tr, name) }

func (l *spanLog) id(name string) obs.SpanID {
	id, ok := l.ids[name]
	if !ok {
		id = l.tr.Span(name)
		l.ids[name] = id
	}
	return id
}

// begin opens a span caused by the innermost open one and returns its
// index for end.
func (l *spanLog) begin(name string) int32 {
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	idx := int32(len(l.recs))
	l.recs = append(l.recs, spanRec{name: name, parent: parent, start: l.tr.Now()})
	l.open = append(l.open, idx)
	l.lane.Begin(l.id(name))
	return idx
}

// end closes span idx, which must be the innermost open one, and returns
// its duration in nanoseconds.
func (l *spanLog) end(idx int32) int64 {
	n := len(l.open)
	if n == 0 || l.open[n-1] != idx {
		panic(fmt.Sprintf("bench: span %d closed out of order", idx))
	}
	l.open = l.open[:n-1]
	r := &l.recs[idx]
	r.end = l.tr.Now()
	l.lane.End(l.id(r.name))
	return r.end - r.start
}

// span times fn as one span.
func (l *spanLog) span(name string, fn func()) int64 {
	i := l.begin(name)
	fn()
	return l.end(i)
}

// selfTimes returns, per span name, the summed self time of the closed
// spans in the subtree rooted at root (root included): each span's
// duration minus the part its direct children cover.
func (l *spanLog) selfTimes(root int32) map[string]int64 {
	out := make(map[string]int64)
	childNs := make(map[int32]int64)
	inTree := map[int32]bool{root: true}
	// Children always follow their parent in recs, so one forward pass
	// sees a parent's membership before its children ask for it.
	for i := root; int(i) < len(l.recs); i++ {
		r := &l.recs[i]
		if i != root && !inTree[r.parent] {
			continue
		}
		inTree[i] = true
		if r.end == 0 {
			continue
		}
		if i != root {
			childNs[r.parent] += r.end - r.start
		}
	}
	for i := range inTree {
		r := &l.recs[i]
		if r.end != 0 {
			out[r.name] += r.end - r.start - childNs[i]
		}
	}
	return out
}

// writeTrace exports every lane of the tracer as Chrome trace-event JSON
// under the build directory and returns the path.
func writeTrace(tr *obs.Tracer, workload string) (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(buildDir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := tr.WriteTrace(f); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}
