package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedianAndMAD(t *testing.T) {
	xs := []float64{1, 1, 2, 2, 4, 6, 9}
	if m := median(xs); m != 2 {
		t.Errorf("median = %g, want 2", m)
	}
	if d := mad(xs); d != 1 {
		t.Errorf("mad = %g, want 1", d)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g, want 2.5", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %g, %v; want 990 with 10 beyond", v, err)
	}
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(xs[:100], 90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %g, %v; want 90", v, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("a percentile of no samples must be refused")
	}
}
