// Package obshttp serves the engine's observability sinks over HTTP. It
// sits beside package obs rather than inside it so the engine, which
// records into obs, links no network stack: only the programs that
// serve telemetry (paraxserve and the -serve flag) import this package.
package obshttp

import (
	"fmt"
	"net/http"

	"github.com/parallax-arch/parallax/internal/obs"
)

// Handler returns the live-telemetry HTTP handler:
//
//	/metrics      Prometheus text exposition (obs.WriteProm; deterministic)
//	/health       200 "ok" while the detector is clean, 503 with the
//	              trip cause once it latches
//	/trace        Chrome trace-event JSON of the resident tracer rings,
//	              with the tracer's loss counters and span totals
//	/series.json  the per-step series window (Series.WriteJSON)
//
// Every endpoint tolerates nil components — a binary can serve with
// tracing off and still answer /health. The handlers only read: the
// tracer, registry, series and detector are all safe to snapshot while
// the simulation keeps stepping.
func Handler(tr *obs.Tracer, reg *obs.Registry, s *obs.Series, h *obs.Health) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WriteProm(w, reg, s); err != nil {
			// Headers are gone; all we can do is note it for the client.
			fmt.Fprintf(w, "# write error: %v\n", err)
		}
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		st := h.Status()
		if st.OK {
			fmt.Fprintln(w, "ok")
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "unhealthy: %s at step %d (observed %g, baseline %g)\n",
			st.Cause, st.Step, st.Observed, st.Baseline)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := tr.WriteTrace(w); err != nil {
			fmt.Fprintf(w, "\n// write error: %v\n", err)
		}
	})
	mux.HandleFunc("/series.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := s.WriteJSON(w); err != nil {
			fmt.Fprintf(w, "\n// write error: %v\n", err)
		}
	})
	return mux
}
