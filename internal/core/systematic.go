package core

import (
	"sync"
	"time"

	"nodefz/internal/eventloop"
)

// SystematicScheduler is the deterministic counterpart of the random
// fuzzer, supporting the "more systematic exploration of Node.js
// application schedules" §6 says Node.fz enables. It follows the
// delay-bounded scheduling idea the paper cites (Emmi et al.): the
// scheduler behaves exactly like nodeNFZ except at an explicit set of
// *decision points* — the k-th opportunities to perturb — where it injects
// one deferral/reorder. An explorer (harness.Explore) then enumerates
// small sets of decision points instead of sampling them randomly.
//
// Every scheduler hook that could perturb counts one decision point per
// opportunity:
//
//   - FilterTimers: one point per call with due > 0 (perturb = defer all);
//   - ShuffleReady: one point per call with >= 2 events (perturb = rotate
//     the list by one and defer the head);
//   - DeferClose: one point per call (perturb = defer);
//   - PickTask: one point per call with n >= 2 (perturb = pick the last).
type SystematicScheduler struct {
	mu      sync.Mutex
	counter int
	delays  map[int]bool
}

var _ eventloop.Scheduler = (*SystematicScheduler)(nil)

// NewSystematic builds a scheduler that perturbs exactly at the given
// decision points (0-based). An empty set reproduces nodeNFZ behaviour.
func NewSystematic(delayPoints []int) *SystematicScheduler {
	m := make(map[int]bool, len(delayPoints))
	for _, p := range delayPoints {
		m[p] = true
	}
	return &SystematicScheduler{delays: m}
}

// Points reports how many decision points the run has presented so far;
// the explorer uses the total from a perturbation-free run to bound its
// enumeration.
func (s *SystematicScheduler) Points() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counter
}

// take consumes one decision point and reports whether to perturb here.
func (s *SystematicScheduler) take() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.counter
	s.counter++
	return s.delays[p]
}

// Name implements eventloop.Scheduler.
func (s *SystematicScheduler) Name() string { return "nodeFZ(systematic)" }

// Serialize implements eventloop.Scheduler.
func (s *SystematicScheduler) Serialize() bool { return true }

// DemuxDone implements eventloop.Scheduler.
func (s *SystematicScheduler) DemuxDone() bool { return true }

// PoolSize implements eventloop.Scheduler.
func (s *SystematicScheduler) PoolSize(int) int { return 1 }

// WaitPolicy implements eventloop.Scheduler: like the standard
// parameterization, give the lone worker a lookahead window.
func (s *SystematicScheduler) WaitPolicy() (int, time.Duration, time.Duration) {
	return -1, 100 * time.Microsecond, 100 * time.Microsecond
}

// FilterTimers implements eventloop.Scheduler.
func (s *SystematicScheduler) FilterTimers(due int) (int, time.Duration) {
	if due == 0 {
		return 0, 0
	}
	if s.take() {
		return 0, 5 * time.Millisecond
	}
	return due, 0
}

// ShuffleReady implements eventloop.Scheduler.
func (s *SystematicScheduler) ShuffleReady(ready, run, deferred []*eventloop.Event) ([]*eventloop.Event, []*eventloop.Event) {
	if len(ready) >= 2 && s.take() {
		// Rotate: run the tail first, defer the previous head one round.
		return append(run, ready[1:]...), append(deferred, ready[0])
	}
	return append(run, ready...), deferred
}

// DeferClose implements eventloop.Scheduler.
func (s *SystematicScheduler) DeferClose(string) bool { return s.take() }

// PickTask implements eventloop.Scheduler.
func (s *SystematicScheduler) PickTask(n int) int {
	if n < 2 {
		return 0
	}
	if s.take() {
		return n - 1
	}
	return 0
}
