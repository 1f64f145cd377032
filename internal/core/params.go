// Package core implements the Node.fz scheduler (paper §4.3): the schedule
// fuzzer that takes control of the event loop's ready-event list, expired
// timers, close callbacks, and the worker pool's task and done queues, and
// perturbs them within the bounds the Node.js/libuv documentation allows
// (§4.4 "Node.fz Fidelity").
//
// All randomness is drawn from a seeded generator, so a (program, seed)
// pair replays the same fuzzing decisions — the property the evaluation
// harness relies on.
package core

import (
	"fmt"
	"time"
)

// Params are the Node.fz scheduler parameters, one field per row of the
// paper's Table 3.
type Params struct {
	// EpollDoF is the maximum shuffle distance of ready poll items
	// ("epoll degrees of freedom"): no event moves further than this from
	// its arrival position. Negative means unlimited.
	EpollDoF int

	// EpollDeferralPct is the probability (percent) of deferring a ready
	// poll item until the next iteration of the event loop.
	EpollDeferralPct int

	// TimerDeferralPct is the probability (percent) of deferring an expired
	// timer until the next iteration. After the first deferral, timer
	// processing short-circuits for the iteration, preserving the
	// {timeout, registration time} order (§4.3.4). 100 starves timers
	// permanently (the decision is re-rolled every iteration) — legal,
	// since timers have no lateness bound (§4.4), but it livelocks
	// timer-driven programs; keep it below 100 in practice.
	TimerDeferralPct int

	// CloseDeferralPct is the probability (percent) of deferring a "close"
	// event until the next iteration.
	CloseDeferralPct int

	// WorkerDoF is the work-queue lookahead distance, i.e. the number of
	// simulated worker-pool workers. Negative means unlimited.
	WorkerDoF int

	// WorkerMaxDelay is the total maximum time a worker waits for the task
	// queue to fill up to WorkerDoF items.
	WorkerMaxDelay time.Duration

	// WorkerEpollThreshold is the maximum time the event loop may sit in its
	// poll phase while a worker waits for the task queue to fill.
	WorkerEpollThreshold time.Duration

	// TimerDeferralDelay is the delay injected when a timer is deferred: "a
	// compromise between desiring forward progress and hoping for other
	// events to arrive to interleave with the timer" (§4.3.4). The paper
	// uses 5 ms.
	TimerDeferralDelay time.Duration
}

// StandardParams returns the paper's "standard parameterization" (Table 3,
// §5.1.2): a choice that fuzzes each supported aspect of nondeterminism
// without perturbing the execution too dramatically.
func StandardParams() Params {
	return Params{
		EpollDoF:             -1, // unlimited
		EpollDeferralPct:     10,
		TimerDeferralPct:     20,
		CloseDeferralPct:     5,
		WorkerDoF:            -1, // unlimited
		WorkerMaxDelay:       100 * time.Microsecond,
		WorkerEpollThreshold: 100 * time.Microsecond,
		TimerDeferralDelay:   5 * time.Millisecond,
	}
}

// NoFuzzParams returns a parameterization that induces no fuzzing: the
// nodeNFZ configuration of §5.1, used to isolate the effect of the
// architectural changes (serialization + de-multiplexing) from the fuzzing
// itself.
func NoFuzzParams() Params {
	return Params{
		EpollDoF:         0,
		EpollDeferralPct: 0,
		TimerDeferralPct: 0,
		CloseDeferralPct: 0,
		WorkerDoF:        1,
	}
}

// GuidedTimerParams returns the §5.2.3 hand-tuned parameterization that
// favours accurate timers: deferring worker-pool tasks and event-loop
// events with high probability makes the loop spend most of its time
// spinning instead of executing callbacks, so ready timers are identified
// and executed promptly. This quadrupled the manifestation rate of the
// KUE-2014 "race against time".
func GuidedTimerParams() Params {
	p := StandardParams()
	p.EpollDeferralPct = 75
	p.TimerDeferralPct = 0 // never delay a timer: we want them accurate
	p.CloseDeferralPct = 50
	p.WorkerMaxDelay = 500 * time.Microsecond
	p.WorkerEpollThreshold = 500 * time.Microsecond
	p.TimerDeferralDelay = 0
	return p
}

// Validate reports whether the parameters are within range.
func (p Params) Validate() error {
	check := func(name string, v int) error {
		if v < 0 || v > 100 {
			return fmt.Errorf("core: %s must be a percentage in [0,100], got %d", name, v)
		}
		return nil
	}
	if err := check("EpollDeferralPct", p.EpollDeferralPct); err != nil {
		return err
	}
	if err := check("TimerDeferralPct", p.TimerDeferralPct); err != nil {
		return err
	}
	if err := check("CloseDeferralPct", p.CloseDeferralPct); err != nil {
		return err
	}
	if p.WorkerMaxDelay < 0 || p.WorkerEpollThreshold < 0 || p.TimerDeferralDelay < 0 {
		return fmt.Errorf("core: durations must be non-negative")
	}
	return nil
}

// String renders the parameters in the layout of Table 3.
func (p Params) String() string {
	dof := func(v int) string {
		if v < 0 {
			return "-1 (unlimited)"
		}
		return fmt.Sprintf("%d", v)
	}
	return fmt.Sprintf(
		"epoll DoF=%s epoll-defer=%d%% timer-defer=%d%% close-defer=%d%% "+
			"worker DoF=%s worker-max-delay=%v worker-epoll-threshold=%v timer-delay=%v",
		dof(p.EpollDoF), p.EpollDeferralPct, p.TimerDeferralPct, p.CloseDeferralPct,
		dof(p.WorkerDoF), p.WorkerMaxDelay, p.WorkerEpollThreshold, p.TimerDeferralDelay)
}
