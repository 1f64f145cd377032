package core

import (
	"fmt"
	"sync/atomic"

	"nodefz/internal/eventloop"
	"nodefz/internal/metrics"
)

// DecisionCounters tally every class of decision the fuzzing scheduler has
// made: how often each hook fired and how often it perturbed the schedule.
// They quantify schedule-space expansion per trial (MUZZ-style decision
// instrumentation) and, because the counters are a pure function of the
// decision sequence, double as a cheap determinism fingerprint: the same
// (program, params, seed) triple must reproduce them exactly.
type DecisionCounters struct {
	TimerCalls         int64 `json:"timer_calls"`          // FilterTimers invocations
	TimersRun          int64 `json:"timers_run"`           // timers allowed through
	TimersDeferred     int64 `json:"timers_deferred"`      // timers pushed to the next iteration
	TimerShortCircuits int64 `json:"timer_short_circuits"` // iterations whose timer phase short-circuited
	ShuffleCalls       int64 `json:"shuffle_calls"`        // ShuffleReady invocations
	EventsShuffled     int64 `json:"events_shuffled"`      // ready events passed through ShuffleReady
	EventsDeferred     int64 `json:"events_deferred"`      // ready events deferred
	CloseCalls         int64 `json:"close_calls"`          // DeferClose invocations
	ClosesDeferred     int64 `json:"closes_deferred"`      // close callbacks deferred
	PickCalls          int64 `json:"pick_calls"`           // PickTask invocations
	LookaheadPicks     int64 `json:"lookahead_picks"`      // picks that skipped the queue head
	// DeliveriesDelayed is always 0: no scheduler delays network
	// deliveries. The repository benchmark still reads it.
	DeliveriesDelayed int64 `json:"deliveries_delayed"`
}

// Add returns the element-wise sum, for aggregating across trials.
func (d DecisionCounters) Add(o DecisionCounters) DecisionCounters {
	d.TimerCalls += o.TimerCalls
	d.TimersRun += o.TimersRun
	d.TimersDeferred += o.TimersDeferred
	d.TimerShortCircuits += o.TimerShortCircuits
	d.ShuffleCalls += o.ShuffleCalls
	d.EventsShuffled += o.EventsShuffled
	d.EventsDeferred += o.EventsDeferred
	d.CloseCalls += o.CloseCalls
	d.ClosesDeferred += o.ClosesDeferred
	d.PickCalls += o.PickCalls
	d.LookaheadPicks += o.LookaheadPicks
	return d
}

// Total returns the total number of hook invocations — the size of the
// decision sequence.
func (d DecisionCounters) Total() int64 {
	return d.TimerCalls + d.ShuffleCalls + d.CloseCalls + d.PickCalls
}

// Perturbations returns the number of decisions that actually changed the
// schedule relative to vanilla ordering.
func (d DecisionCounters) Perturbations() int64 {
	return d.TimersDeferred + d.EventsDeferred + d.ClosesDeferred + d.LookaheadPicks
}

// FoldInto writes the counters into a metrics registry as "sched.*" gauges,
// so a trial's Snapshot carries its decision profile.
func (d DecisionCounters) FoldInto(reg *metrics.Registry) {
	reg.Gauge("sched.timer_calls").Set(d.TimerCalls)
	reg.Gauge("sched.timers_run").Set(d.TimersRun)
	reg.Gauge("sched.timers_deferred").Set(d.TimersDeferred)
	reg.Gauge("sched.timer_short_circuits").Set(d.TimerShortCircuits)
	reg.Gauge("sched.shuffle_calls").Set(d.ShuffleCalls)
	reg.Gauge("sched.events_shuffled").Set(d.EventsShuffled)
	reg.Gauge("sched.events_deferred").Set(d.EventsDeferred)
	reg.Gauge("sched.close_calls").Set(d.CloseCalls)
	reg.Gauge("sched.closes_deferred").Set(d.ClosesDeferred)
	reg.Gauge("sched.pick_calls").Set(d.PickCalls)
	reg.Gauge("sched.lookahead_picks").Set(d.LookaheadPicks)
}

// String renders the perturbation-relevant counters compactly.
func (d DecisionCounters) String() string {
	return fmt.Sprintf("timers %d/%d deferred (%d short-circuits), events %d/%d deferred, closes %d/%d deferred, picks %d/%d lookahead",
		d.TimersDeferred, d.TimerCalls, d.TimerShortCircuits,
		d.EventsDeferred, d.EventsShuffled,
		d.ClosesDeferred, d.CloseCalls,
		d.LookaheadPicks, d.PickCalls)
}

// DecisionSource is implemented by schedulers that count their decisions.
type DecisionSource interface {
	Decisions() DecisionCounters
}

// DecisionsOf extracts decision counters from any scheduler that records
// them (the fuzzing scheduler, and its recording/replay wrappers); ok is
// false for decision-free schedulers like eventloop.VanillaScheduler.
func DecisionsOf(s eventloop.Scheduler) (DecisionCounters, bool) {
	if ds, ok := s.(DecisionSource); ok {
		return ds.Decisions(), true
	}
	return DecisionCounters{}, false
}

// decisions is the atomic backing store; hooks touch it lock-free.
type decisions struct {
	timerCalls         atomic.Int64
	timersRun          atomic.Int64
	timersDeferred     atomic.Int64
	timerShortCircuits atomic.Int64
	shuffleCalls       atomic.Int64
	eventsShuffled     atomic.Int64
	eventsDeferred     atomic.Int64
	closeCalls         atomic.Int64
	closesDeferred     atomic.Int64
	pickCalls          atomic.Int64
	lookaheadPicks     atomic.Int64
}

func (d *decisions) reset() {
	d.timerCalls.Store(0)
	d.timersRun.Store(0)
	d.timersDeferred.Store(0)
	d.timerShortCircuits.Store(0)
	d.shuffleCalls.Store(0)
	d.eventsShuffled.Store(0)
	d.eventsDeferred.Store(0)
	d.closeCalls.Store(0)
	d.closesDeferred.Store(0)
	d.pickCalls.Store(0)
	d.lookaheadPicks.Store(0)
}

func (d *decisions) snapshot() DecisionCounters {
	return DecisionCounters{
		TimerCalls:         d.timerCalls.Load(),
		TimersRun:          d.timersRun.Load(),
		TimersDeferred:     d.timersDeferred.Load(),
		TimerShortCircuits: d.timerShortCircuits.Load(),
		ShuffleCalls:       d.shuffleCalls.Load(),
		EventsShuffled:     d.eventsShuffled.Load(),
		EventsDeferred:     d.eventsDeferred.Load(),
		CloseCalls:         d.closeCalls.Load(),
		ClosesDeferred:     d.closesDeferred.Load(),
		PickCalls:          d.pickCalls.Load(),
		LookaheadPicks:     d.lookaheadPicks.Load(),
	}
}
