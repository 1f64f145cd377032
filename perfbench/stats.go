package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the closest ranks (the "type 7" rule numpy and most
// spreadsheets use). xs need not be sorted; it is not modified. NaN for an
// empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) returns (its default "exclusive" method),
// so a spread computed here matches one computed by a Python checker.
// It needs at least two values.
func quartiles(xs []float64) [3]float64 {
	s := sortedCopy(xs)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out
}

// spread is the distance between the first and third quartiles as a share
// of the median — the steadiness figure the benchmark's bounds are set
// against.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	return (q[2] - q[0]) / math.Abs(q[1])
}

// windowRate splits [0, span) into n equal windows, counts the events at
// offsets ts that fall in each, and returns the median of the windows'
// rates. A stall confined to a few windows moves it far less than it moves
// the mean rate, len(ts)/span.
func windowRate(ts []float64, span float64, n int) float64 {
	w := span / float64(n)
	rates := make([]float64, n)
	for _, t := range ts {
		i := int(t / w)
		if i >= n {
			i = n - 1
		} else if i < 0 {
			i = 0
		}
		rates[i]++
	}
	for i := range rates {
		rates[i] /= w
	}
	return median(rates)
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
