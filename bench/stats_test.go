package main

import (
	"math"
	"testing"
	"time"
)

func TestHighestPercentileWithTenSamplesBeyondIt(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {100000, 99},
	} {
		if got := supportedPercentile(c.n, 99); got != c.want {
			t.Errorf("n=%d: p%g, want p%g", c.n, got, c.want)
		}
	}
	if got := supportedPercentile(100000, 99.9); got != 99.9 {
		t.Errorf("n=100000 asked for p99.9: got p%g", got)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	d := []time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	if s := summarize(d); s.P50 != 2 || s.High != 2 || s.HighPct != 50 || s.N != 3 {
		t.Errorf("summarize(1,2,3 ms) = %+v", s)
	}
}

// Python: statistics.quantiles([1.2, 0.9, 1.0, 1.4, 1.1, 1.3, 0.8, 1.6, 1.05, 1.15], n=4)
// gives [0.975, 1.125, 1.325].
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	q1, q3 := quartiles([]float64{1.2, 0.9, 1.0, 1.4, 1.1, 1.3, 0.8, 1.6, 1.05, 1.15})
	if math.Abs(q1-0.975) > 1e-12 || math.Abs(q3-1.325) > 1e-12 {
		t.Errorf("quartiles %g, %g; want 0.975, 1.325", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}
