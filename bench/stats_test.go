package main

import (
	"math"
	"testing"
)

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuantileMatchesPythonExclusive(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.25, 2.75}, {0.5, 5.5}, {0.75, 8.25}} {
		if got := quantile(data, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	// Positions outside the inner samples extrapolate from the first or
	// last pair, as Python does: quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0].
	if got := quantile([]float64{1, 2, 3}, 0.25); got != 1 {
		t.Errorf("quantile(1..3, 0.25) = %g, want 1", got)
	}
	if got := quantile([]float64{4}, 0.75); got != 4 {
		t.Errorf("quantile of one sample = %g, want 4", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestQuartilesLeaveInputUnsorted(t *testing.T) {
	v := []float64{3, 1, 2}
	q1, q2, q3 := quartiles(v)
	if v[0] != 3 || q2 != 2 || q1 > q2 || q3 < q2 {
		t.Errorf("quartiles(%v) = %g, %g, %g", v, q1, q2, q3)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileTailRule(t *testing.T) {
	for _, c := range []struct {
		p    float64
		need int
	}{{0.5, 20}, {0.75, 40}, {0.9, 100}} {
		if got := minSamples(c.p); got != c.need {
			t.Errorf("minSamples(%g) = %d, want %d", c.p, got, c.need)
		}
		if !tailOK(c.need, c.p) || tailOK(c.need-1, c.p) {
			t.Errorf("tailOK around %d samples for p%g is wrong", c.need, 100*c.p)
		}
	}
}
