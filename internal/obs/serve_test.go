package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestHandlerEndpoints(t *testing.T) {
	tr := NewTracer()
	l := tr.Lane("main", 64)
	id := tr.Span("step")
	l.Begin(id)
	l.End(id)
	reg := NewRegistry()
	reg.Add(reg.Counter("engine/steps"), 3)
	s := NewSeries(64)
	ke := s.Channel("kinetic_energy")
	s.Set(ke, 42)
	s.Advance()
	h := NewHealth()

	srv := httptest.NewServer(Handler(tr, reg, s, h))
	defer srv.Close()

	code, body, ctype := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "0.0.4") {
		t.Errorf("/metrics content type = %q", ctype)
	}
	if err := ValidateExposition([]byte(body)); err != nil {
		t.Errorf("/metrics invalid: %v\n%s", err, body)
	}
	if !strings.Contains(body, "parallax_engine_steps_total 3") ||
		!strings.Contains(body, "parallax_series_kinetic_energy 42") {
		t.Errorf("/metrics body:\n%s", body)
	}

	code, body, _ = get(t, srv, "/health")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/health = %d %q", code, body)
	}

	code, body, _ = get(t, srv, "/trace")
	if code != http.StatusOK || !json.Valid([]byte(body)) {
		t.Fatalf("/trace = %d, valid=%v", code, json.Valid([]byte(body)))
	}

	code, body, _ = get(t, srv, "/series.json")
	if code != http.StatusOK || !json.Valid([]byte(body)) {
		t.Fatalf("/series.json = %d, valid=%v", code, json.Valid([]byte(body)))
	}

	// Trip the detector: /health flips to 503 with the cause.
	h.Update(9, Sample{Finite: false})
	code, body, _ = get(t, srv, "/health")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("tripped /health = %d, want 503", code)
	}
	if !strings.Contains(body, "nan_state") || !strings.Contains(body, "step 9") {
		t.Errorf("tripped /health body = %q", body)
	}
}

// TestHandlerServesWriterBytes: /metrics and /trace serve exactly what
// WriteProm and WriteTrace write to a file, so a -metrics or -trace file
// reads the same as a scrape taken at the same moment — with a nil
// tracer too, which writes an empty but valid trace.
func TestHandlerServesWriterBytes(t *testing.T) {
	tr := NewTracer()
	l := tr.Lane("main", 64)
	id := tr.Span("step")
	for i := 0; i < 3; i++ {
		l.Begin(id)
		l.End(id)
	}
	reg := NewRegistry()
	reg.Add(reg.Counter("engine/steps"), 3)
	reg.ObserveInt(reg.Histogram("engine/island_dof", []int64{8, 64}), 12)
	s := NewSeries(64)
	s.Set(s.Channel("kinetic_energy"), 42)
	s.Advance()

	trace := func(tr *Tracer) string {
		t.Helper()
		var sb strings.Builder
		if err := tr.WriteTrace(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	t.Run("metrics", func(t *testing.T) {
		srv := httptest.NewServer(Handler(tr, reg, s, nil))
		defer srv.Close()
		if _, body, _ := get(t, srv, "/metrics"); body != promOutput(t, reg, s) {
			t.Fatalf("/metrics =\n%s\nwant WriteProm's\n%s", body, promOutput(t, reg, s))
		}
	})
	t.Run("trace", func(t *testing.T) {
		srv := httptest.NewServer(Handler(tr, reg, s, nil))
		defer srv.Close()
		want := trace(tr)
		if _, body, _ := get(t, srv, "/trace"); body != want {
			t.Fatalf("/trace =\n%s\nwant WriteTrace's\n%s", body, want)
		}
		if !strings.Contains(want, `"span/step/count":3`) {
			t.Errorf("trace lacks the span totals:\n%s", want)
		}
	})
	t.Run("nil-trace", func(t *testing.T) {
		srv := httptest.NewServer(Handler(nil, reg, s, nil))
		defer srv.Close()
		const empty = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n"
		if got := trace(nil); got != empty {
			t.Fatalf("nil WriteTrace = %q, want %q", got, empty)
		}
		if _, body, _ := get(t, srv, "/trace"); body != empty {
			t.Fatalf("/trace with a nil tracer = %q, want %q", body, empty)
		}
	})
}

func TestHandlerNilComponents(t *testing.T) {
	srv := httptest.NewServer(Handler(nil, nil, nil, nil))
	defer srv.Close()

	code, body, _ := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if err := ValidateExposition([]byte(body)); err != nil {
		t.Errorf("empty /metrics invalid: %v", err)
	}
	if code, _, _ := get(t, srv, "/health"); code != http.StatusOK {
		t.Fatalf("nil detector /health = %d, want 200 (nothing watching)", code)
	}
	for _, path := range []string{"/trace", "/series.json"} {
		code, body, _ := get(t, srv, path)
		if code != http.StatusOK || !json.Valid([]byte(body)) {
			t.Fatalf("%s = %d, body %q", path, code, body)
		}
	}
}
