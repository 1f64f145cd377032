// Package loadgen generates open-loop request arrivals on an event loop:
// an Arrival fires callbacks at the instants of a seeded Poisson process
// whose rate follows a steady, diurnal or bursty curve. The cluster corpus
// drives its background client traffic with it.
package loadgen

import (
	"math"
	"time"

	"nodefz/internal/eventloop"
	"nodefz/internal/frand"
)

// Curve selects the rate shape of an open-loop arrival process.
type Curve int

const (
	// Steady holds the base rate.
	Steady Curve = iota
	// Diurnal modulates the rate sinusoidally over Period — the compressed
	// day/night cycle of a public-facing service.
	Diurnal
	// Burst multiplies the rate by BurstFactor inside periodic windows —
	// thundering herds against a quiet baseline.
	Burst
)

// Arrival is an open-loop (arrival-curve) workload: requests fire at
// process-generated instants regardless of how the system keeps up, unlike
// closed-loop clients that wait for each response. Inter-arrival
// gaps are exponential around the instantaneous rate (a Poisson process
// whose intensity follows Curve), drawn from a seeded generator, so the
// whole arrival schedule is a deterministic function of Seed.
//
// The cluster corpus drives its background read traffic with one of these:
// open-loop arrivals keep pressure on the replicas' loops during partitions
// and view changes, when a closed-loop client would simply stall.
type Arrival struct {
	// Seed drives the inter-arrival draws.
	Seed int64
	// Rate is the baseline intensity in arrivals per second. Default 200.
	Rate float64
	// Curve is the rate shape; Steady when unset.
	Curve Curve
	// Period is the diurnal cycle length. Default 50ms (a compressed day —
	// trial timescales are milliseconds).
	Period time.Duration
	// Amplitude is the diurnal swing: the rate varies between
	// Rate*(1-Amplitude) and Rate*(1+Amplitude). Default 0.8.
	Amplitude float64
	// BurstEvery and BurstLen place the burst windows: the first BurstLen of
	// every BurstEvery runs at Rate*BurstFactor. Defaults 25ms, 5ms, 8.
	BurstEvery  time.Duration
	BurstLen    time.Duration
	BurstFactor float64
}

func (a *Arrival) fill() {
	if a.Rate <= 0 {
		a.Rate = 200
	}
	if a.Period <= 0 {
		a.Period = 50 * time.Millisecond
	}
	if a.Amplitude <= 0 || a.Amplitude > 1 {
		a.Amplitude = 0.8
	}
	if a.BurstEvery <= 0 {
		a.BurstEvery = 25 * time.Millisecond
	}
	if a.BurstLen <= 0 || a.BurstLen > a.BurstEvery {
		a.BurstLen = 5 * time.Millisecond
	}
	if a.BurstFactor <= 0 {
		a.BurstFactor = 8
	}
}

// RateAt is the instantaneous intensity (arrivals/sec) at offset t from the
// start of the process.
func (a Arrival) RateAt(t time.Duration) float64 {
	a.fill()
	switch a.Curve {
	case Diurnal:
		phase := 2 * math.Pi * float64(t%a.Period) / float64(a.Period)
		r := a.Rate * (1 + a.Amplitude*math.Sin(phase))
		if min := a.Rate * 0.05; r < min {
			r = min
		}
		return r
	case Burst:
		if t%a.BurstEvery < a.BurstLen {
			return a.Rate * a.BurstFactor
		}
		return a.Rate
	default:
		return a.Rate
	}
}

// Drive schedules fire(i) on l at each arrival instant until the process
// offset passes `until`; fire runs in its own timer unit, so consecutive
// arrivals are independent events to the scheduler and the oracle. Call
// with the loop set up but not yet running (or from a loop callback).
func (a Arrival) Drive(l *eventloop.Loop, until time.Duration, fire func(i int)) {
	a.fill()
	rng := frand.New(a.Seed)
	elapsed := time.Duration(0)
	i := 0
	var schedule func()
	schedule = func() {
		u := rng.Float64()
		for u <= 0 {
			u = rng.Float64()
		}
		gap := time.Duration(-math.Log(u) / a.RateAt(elapsed) * float64(time.Second))
		// Substrate floor: the corpus keeps every interval above the stock
		// kernel's timer granularity story; collapse ultra-short gaps.
		if gap < 100*time.Microsecond {
			gap = 100 * time.Microsecond
		}
		elapsed += gap
		if elapsed > until {
			return
		}
		n := i
		i++
		l.SetTimeoutNamed("arrival", gap, func() {
			fire(n)
			schedule()
		})
	}
	schedule()
}
