package main

import (
	"io"
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := sample{5, 1, 4, 2, 3}.sorted()
	for _, c := range []struct{ p, want float64 }{{0.5, 3}, {0.2, 1}, {0.21, 2}, {0.95, 5}, {1, 5}} {
		if got := s.percentile(c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := (sample{}).percentile(0.5); got != 0 {
		t.Errorf("empty sample percentile = %v, want 0", got)
	}
}

// The picker reports the highest percentile that still has ten samples
// beyond it, so a "p99" is never two outliers.
func TestPickTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := pickTail(c.n); got != c.want {
			t.Errorf("pickTail(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := pickTail(c.n); p > 0 {
			if beyond := c.n - int(math.Ceil(p*float64(c.n))); beyond < minBeyond {
				t.Errorf("pickTail(%d) = %v leaves only %d samples beyond", c.n, p, beyond)
			}
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// is what the driver computes over ten runs.
func TestQuartilesMatchPython(t *testing.T) {
	var s sample
	for i := 1; i <= 10; i++ {
		s = append(s, float64(i))
	}
	q1, q3 := quartiles(s)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1.5, 2, 2, 3, 10], n=4) == [1.75, 2.0, 6.5]
	q1, q3 = quartiles(sample{1.5, 2, 2, 3, 10})
	if q1 != 1.75 || q3 != 6.5 {
		t.Errorf("quartiles = %v, %v; Python gives 1.75, 6.5", q1, q3)
	}
	if got, want := spread([]float64{10, 1.5, 2, 3, 2}), (6.5-1.75)/2; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestResultWriteRefusesMissingAndNonFinite(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "ms"}}
	r := newResult()
	if err := r.write(io.Discard, defs); err == nil {
		t.Error("a result without metric a was written")
	}
	r.set("a", math.NaN())
	if err := r.write(io.Discard, defs); err == nil {
		t.Error("a NaN metric was written")
	}
	r.set("a", 1.5)
	if err := r.write(io.Discard, defs); err != nil {
		t.Errorf("complete result: %v", err)
	}
}
