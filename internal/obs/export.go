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
func (t *Tracer) WriteTrace(w io.Writer) error {
	if t == nil {
		return nil
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

	for _, l := range lanes {
		emit(`{"ph":"M","name":"thread_name","pid":1,"tid":%d,"args":{"name":%q}}`, l.id, l.name)
		for _, e := range l.snapshotEvents() {
			emit(`{"ph":"X","name":%q,"cat":"parallax","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f}`,
				spanName(e.id), l.id, float64(e.start)/1e3, float64(e.dur)/1e3)
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
