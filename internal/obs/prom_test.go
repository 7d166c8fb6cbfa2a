package obs

import (
	"strings"
	"testing"
)

func promOutput(t *testing.T, r *Registry, s *Series) string {
	t.Helper()
	var sb strings.Builder
	if err := WriteProm(&sb, r, s); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("engine/steps")
	g := r.Gauge("config/scale")
	h := r.Histogram("engine/island_dof", []int64{25, 64})
	r.Add(c, 42)
	r.SetGauge(g, 0.25)
	r.ObserveInt(h, 10)  // le 25
	r.ObserveInt(h, 30)  // le 64
	r.ObserveInt(h, 100) // +Inf

	s := NewSeries(64)
	ke := s.Channel("kinetic_energy")
	ph := s.TimingChannel("phase/broad_ns")
	s.Set(ke, 12.5)
	s.Set(ph, 99999)
	s.Advance()

	out := promOutput(t, r, s)
	if err := ValidateExposition([]byte(out)); err != nil {
		t.Fatalf("own output fails validation: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE parallax_engine_steps_total counter\n",
		"parallax_engine_steps_total 42\n",
		"# TYPE parallax_config_scale gauge\n",
		"parallax_config_scale 0.25\n",
		"# TYPE parallax_engine_island_dof histogram\n",
		`parallax_engine_island_dof_bucket{le="25"} 1` + "\n",
		`parallax_engine_island_dof_bucket{le="64"} 2` + "\n",
		`parallax_engine_island_dof_bucket{le="+Inf"} 3` + "\n",
		"parallax_engine_island_dof_sum 140\n",
		"parallax_engine_island_dof_count 3\n",
		"# TYPE parallax_series_kinetic_energy gauge\n",
		"parallax_series_kinetic_energy 12.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}
	// Wall-clock data must never appear: timing channels.
	if strings.Contains(out, "phase") || strings.Contains(out, "broad_ns") {
		t.Errorf("timing channel leaked into exposition:\n%s", out)
	}
}

func TestWritePromDeterministicOrder(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		// Registration order differs run to run conceptually; output
		// must be sorted regardless.
		r.Add(r.Counter("z/last"), 1)
		r.Add(r.Counter("a/first"), 2)
		r.SetGauge(r.Gauge("m/mid"), 3)
		return promOutput(t, r, nil)
	}
	build2 := func() string {
		r := NewRegistry()
		r.SetGauge(r.Gauge("m/mid"), 3)
		r.Add(r.Counter("a/first"), 2)
		r.Add(r.Counter("z/last"), 1)
		return promOutput(t, r, nil)
	}
	if a, b := build(), build2(); a != b {
		t.Fatalf("registration order leaked into exposition:\n%s\nvs\n%s", a, b)
	}
}

// TestWritePromSortedByName: families come out sorted by metric name,
// whatever order they were registered and first written in.
func TestWritePromSortedByName(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"c/three", "a/one", "b/two"} {
		r.Counter(n)
	}
	r.Add(r.Counter("b/two"), 2)
	r.Add(r.Counter("a/one"), 1)
	r.Add(r.Counter("c/three"), 3)
	var samples []string
	for _, line := range strings.Split(strings.TrimSpace(promOutput(t, r, nil)), "\n") {
		if !strings.HasPrefix(line, "#") {
			samples = append(samples, line)
		}
	}
	want := []string{"parallax_a_one_total 1", "parallax_b_two_total 2", "parallax_c_three_total 3"}
	if strings.Join(samples, "\n") != strings.Join(want, "\n") {
		t.Fatalf("samples = %q, want %q", samples, want)
	}
}

func TestPromNameMangling(t *testing.T) {
	if got := promName("engine/solver-rows.v2"); got != "parallax_engine_solver_rows_v2" {
		t.Fatalf("promName = %q", got)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"bad name":       "9bad_name 1\n",
		"bad value":      "parallax_x abc\n",
		"bad type":       "# TYPE parallax_x rate\n",
		"malformed TYPE": "# TYPE parallax_x\n",
		"dup family":     "# TYPE parallax_x gauge\n# TYPE parallax_x counter\n",
		"non-cumulative": "# TYPE parallax_h histogram\n" +
			`parallax_h_bucket{le="1"} 5` + "\n" +
			`parallax_h_bucket{le="+Inf"} 3` + "\n" +
			"parallax_h_sum 1\nparallax_h_count 3\n",
		"count mismatch": "# TYPE parallax_h histogram\n" +
			`parallax_h_bucket{le="+Inf"} 3` + "\n" +
			"parallax_h_sum 1\nparallax_h_count 4\n",
		"missing inf": "# TYPE parallax_h histogram\n" +
			`parallax_h_bucket{le="1"} 3` + "\n" +
			"parallax_h_sum 1\nparallax_h_count 3\n",
		"unterminated labels": "parallax_x{le=\"1\" 3\n",
	}
	for name, doc := range cases {
		if err := ValidateExposition([]byte(doc)); err == nil {
			t.Errorf("%s: accepted invalid exposition:\n%s", name, doc)
		}
	}
	if err := ValidateExposition([]byte("# TYPE parallax_x gauge\nparallax_x NaN\n")); err != nil {
		t.Errorf("NaN is a legal sample value: %v", err)
	}
}
