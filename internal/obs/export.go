package obs

import (
	"bufio"
	"fmt"
	"io"
)

// WriteTrace exports every lane's spans as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each lane
// becomes one thread track (tid = lane id) under pid 1, named via a
// thread_name metadata event. Timestamps are microseconds since the
// tracer started.
//
// A lane's ring holds finished spans only, each emitted as one "X"
// event with its start and duration. Rings wrap, so a lane emits the
// spans still resident, ordered by start with a parent before its
// children; a span still open at export time is not there yet.
//
// The top-level otherData object carries the tracer's own numbers, so
// every trace says how much it lost: stack_drops (Begins lost to a full
// open-span stack) and ring_overwrites (finished spans lost to
// wraparound), summed over the lanes, then span/<name>/count and
// span/<name>/ns (finished spans and their summed duration) for each
// span that finished at least once. They are wall-clock diagnostics,
// not experiment output. A nil tracer writes an empty trace.
func (t *Tracer) WriteTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n")
		return err
	}
	t.mu.Lock()
	lanes := append([]*Lane(nil), t.lanes...)
	names := append([]string(nil), t.names...)
	t.mu.Unlock()

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...interface{}) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}
	emit(`{"ph":"M","name":"process_name","pid":1,"args":{"name":"parallax"}}`)

	spanName := func(id SpanID) string {
		if int(id) < len(names) {
			return names[id]
		}
		return fmt.Sprintf("span-%d", id)
	}

	var stackDrops, ringOverwrites int64
	for _, l := range lanes {
		emit(`{"ph":"M","name":"thread_name","pid":1,"tid":%d,"args":{"name":%q}}`, l.id, l.name)
		for _, e := range l.snapshotEvents() {
			emit(`{"ph":"X","name":%q,"cat":"parallax","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f}`,
				spanName(e.id), l.id, float64(e.start)/1e3, float64(e.dur)/1e3)
		}
		sd, ro := l.Dropped()
		stackDrops += sd
		ringOverwrites += ro
	}
	fmt.Fprintf(bw, "\n],\"otherData\":{\"stack_drops\":%d,\"ring_overwrites\":%d", stackDrops, ringOverwrites)
	for id, name := range names {
		if count, ns := t.SpanTotal(SpanID(id)); count > 0 {
			fmt.Fprintf(bw, ",\n%q:%d,%q:%d", "span/"+name+"/count", count, "span/"+name+"/ns", ns)
		}
	}
	if _, err := bw.WriteString("}}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
