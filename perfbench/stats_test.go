package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	cases := []struct{ q, want float64 }{
		{0.01, 1}, {0.2, 1}, {0.21, 2}, {0.5, 3}, {0.8, 4}, {0.99, 5}, {1, 5},
	}
	for _, c := range cases {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("quantile sorted its input in place")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
	// Median of an even count is the lower middle sample.
	if got := median([]float64{10, 20}); got != 10 {
		t.Errorf("median(10, 20) = %v, want 10", got)
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 1}, {10, 1}, {11, 1.0 / 11}, {20, 0.5}, {100, 0.9}, {1000, 0.99}, {5000, 0.99}} {
		if got := tailQ(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQ(%d) = %v, want %v", c.n, got, c.want)
		}
		// Wherever a percentile below the maximum is reported, at least
		// ten samples lie beyond it.
		if q := tailQ(c.n); q < 1 {
			if beyond := c.n - 1 - rankIndex(c.n, q); beyond < 10 {
				t.Errorf("tailQ(%d) = %v leaves %d samples beyond", c.n, q, beyond)
			}
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, q := tail(xs); v != 990 || q != 0.99 {
		t.Errorf("tail(1..1000) = %v at q=%v, want 990 at 0.99", v, q)
	}
}

func TestRatioAndResiduals(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3,4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio over zero = %v, want 0", got)
	}
	if got := nonNeg(-2); got != 0 {
		t.Errorf("nonNeg(-2) = %v", got)
	}
	if got := nonNeg(2); got != 2 {
		t.Errorf("nonNeg(2) = %v", got)
	}
	if got := sum([]float64{1, 2, 3.5}); got != 6.5 {
		t.Errorf("sum = %v", got)
	}
	got := durs([]time.Duration{1500 * time.Microsecond, 2 * time.Millisecond}, time.Millisecond)
	if got[0] != 1.5 || got[1] != 2 {
		t.Errorf("durs = %v", got)
	}
}
