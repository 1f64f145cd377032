package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {0.99, 39.7},
	} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample p99 = %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty percentile should be NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4}, [3]float64{1.8125, 3.75, 7.75}},
		{[]float64{5, 7}, [3]float64{4.5, 6, 7.5}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
		{[]float64{2, 9, 4, 4, 7, 1, 8, 3, 6, 5, 11}, [3]float64{3, 5, 8}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if !near(got[i], c.want[i]) {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestWindowRateIsTheMedianWindow(t *testing.T) {
	// Ten events a second for ten seconds, except a stalled fourth second.
	var ts []float64
	for i := 0; i < 100; i++ {
		if at := float64(i) / 10; at < 3 || at >= 4 {
			ts = append(ts, at)
		}
	}
	if got := windowRate(ts, 10, 10); got != 10 {
		t.Errorf("windowRate = %v, want 10", got)
	}
	// An event at the very end of the span counts in the last window.
	if got := windowRate([]float64{0.5, 1}, 1, 1); got != 2 {
		t.Errorf("windowRate = %v, want 2", got)
	}
}

func TestSpreadIsIQROverMedian(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("spread of constants = %v", got)
	}
}
