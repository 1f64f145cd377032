package core

import (
	"math/rand"

	"nodefz/internal/frand"
	"sync"
	"time"

	"nodefz/internal/eventloop"
)

// Scheduler is the Node.fz fuzzing scheduler. It implements
// eventloop.Scheduler (and, structurally, pool.Picker), making every
// decision from its Params and a seeded random generator.
//
// Architectural behaviour, independent of the probabilities (§4.3.3):
//
//   - callbacks are serialized: no worker-pool task overlaps a loop
//     callback, and the effective pool size is 1;
//   - the worker pool's done queue is de-multiplexed: each completed task
//     is delivered as its own pollable event, so the scheduler has complete
//     control over the order of done callbacks relative to each other and
//     to other callbacks.
//
// Scheduler is safe for the concurrent use the event loop subjects it to
// (loop-goroutine hooks plus worker-goroutine hooks).
type Scheduler struct {
	params Params
	name   string

	mu  sync.Mutex
	rng *rand.Rand

	dec decisions // lock-free decision counters, read via Decisions
}

var _ eventloop.Scheduler = (*Scheduler)(nil)

// NewScheduler builds a fuzzing scheduler with the given parameters and
// seed. The same (program, params, seed) triple replays the same decisions.
func NewScheduler(params Params, seed int64) *Scheduler {
	return newNamed("nodeFZ", params, seed)
}

// NewNoFuzzScheduler builds the nodeNFZ configuration: the Node.fz
// architecture (serialization, de-multiplexing, pool size 1) with all
// fuzzing probabilities zero. §5.1 uses it to separate the effect of the
// architectural changes from the fuzzing itself.
func NewNoFuzzScheduler() *Scheduler {
	return newNamed("nodeNFZ", NoFuzzParams(), 0)
}

// NewGuidedScheduler builds the §5.2.3 guided parameterization.
func NewGuidedScheduler(seed int64) *Scheduler {
	return newNamed("nodeFZ(guided)", GuidedTimerParams(), seed)
}

func newNamed(name string, params Params, seed int64) *Scheduler {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	return &Scheduler{
		params: params,
		name:   name,
		rng:    frand.New(seed),
	}
}

// Reseed re-arms the scheduler in place for a new trial: new parameters,
// a freshly seeded decision stream, and zeroed decision counters. The name
// is kept. Reseeding is bit-identical to building a new scheduler with
// NewScheduler(params, seed) — frand.Source.Seed restores exactly the
// state NewSource(seed) starts from — which is what lets a trial arena
// keep one scheduler across trials without perturbing any schedule.
func (s *Scheduler) Reseed(params Params, seed int64) {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	s.mu.Lock()
	s.params = params
	s.rng.Seed(seed)
	s.mu.Unlock()
	s.dec.reset()
}

// Params returns the scheduler's parameterization.
func (s *Scheduler) Params() Params { return s.params }

// Decisions returns a snapshot of the scheduler's decision counters. The
// counters never feed back into the RNG, so reading them does not perturb
// the decision stream.
func (s *Scheduler) Decisions() DecisionCounters { return s.dec.snapshot() }

// Name implements eventloop.Scheduler.
func (s *Scheduler) Name() string { return s.name }

// Serialize implements eventloop.Scheduler: Node.fz serializes callback
// executions between the event loop and its one real worker, whose
// siblings the task-queue lookahead simulates, so it can be completely
// certain about their relative order (§4.3.3, relied on in §5.3's schedule
// reconstruction).
func (s *Scheduler) Serialize() bool { return true }

// chance reports true with probability pct/100.
func (s *Scheduler) chance(pct int) bool {
	if pct <= 0 {
		return false
	}
	if pct >= 100 {
		return true
	}
	s.mu.Lock()
	v := s.rng.Intn(100)
	s.mu.Unlock()
	return v < pct
}

// FilterTimers implements eventloop.Scheduler. Expired timers are executed
// in order according to the timer deferral percentage until one of them is
// deferred; processing then short-circuits until the next iteration,
// preserving the {timeout, registration time} ordering, and the configured
// delay is injected (§4.3.4).
func (s *Scheduler) FilterTimers(due int) (int, time.Duration) {
	s.dec.timerCalls.Add(1)
	for i := 0; i < due; i++ {
		if s.chance(s.params.TimerDeferralPct) {
			s.dec.timersRun.Add(int64(i))
			s.dec.timersDeferred.Add(int64(due - i))
			s.dec.timerShortCircuits.Add(1)
			return i, s.params.TimerDeferralDelay
		}
	}
	s.dec.timersRun.Add(int64(due))
	return due, 0
}

// ShuffleReady implements eventloop.Scheduler. The ready list is shuffled
// with a sliding window of width EpollDoF+1 (unlimited DoF degenerates to a
// uniform shuffle), so no descriptor is pulled forward by more than the
// shuffle distance; each event is then deferred to the next iteration with
// probability EpollDeferralPct. The shuffle runs in place in the caller's
// run buffer, so the scheduler keeps no event memory between calls.
func (s *Scheduler) ShuffleReady(ready, run, deferred []*eventloop.Event) ([]*eventloop.Event, []*eventloop.Event) {
	n := len(ready)
	if n == 0 {
		return run, deferred
	}
	base := len(run)
	run = append(run, ready...)
	out := run[base:]
	deferredBefore := len(deferred)
	s.mu.Lock()
	if s.params.EpollDoF != 0 {
		// out[:k] is the shuffled prefix and out[k:] the remaining events in
		// arrival order; each step moves one of the first w remaining events
		// to the front of the remainder.
		for k := 0; k < n; k++ {
			w := n - k
			if s.params.EpollDoF > 0 && s.params.EpollDoF+1 < w {
				w = s.params.EpollDoF + 1
			}
			if i := s.rng.Intn(w); i > 0 {
				ev := out[k+i]
				copy(out[k+1:k+i+1], out[k:k+i])
				out[k] = ev
			}
		}
	}
	pct := s.params.EpollDeferralPct
	kept := 0
	for _, ev := range out {
		if pct > 0 && (pct >= 100 || s.rng.Intn(100) < pct) {
			deferred = append(deferred, ev)
		} else {
			out[kept] = ev
			kept++
		}
	}
	s.mu.Unlock()
	s.dec.shuffleCalls.Add(1)
	s.dec.eventsShuffled.Add(int64(n))
	s.dec.eventsDeferred.Add(int64(len(deferred) - deferredBefore))
	return run[:base+kept], deferred
}

// DeferClose implements eventloop.Scheduler.
func (s *Scheduler) DeferClose(string) bool {
	s.dec.closeCalls.Add(1)
	v := s.chance(s.params.CloseDeferralPct)
	if v {
		s.dec.closesDeferred.Add(1)
	}
	return v
}

// PickTask implements eventloop.Scheduler: the lone worker executes a task
// chosen uniformly among the first WorkerDoF queued tasks, simulating
// multiple workers (§4.3.3).
func (s *Scheduler) PickTask(n int) int {
	s.dec.pickCalls.Add(1)
	if n <= 1 {
		return 0
	}
	s.mu.Lock()
	i := s.rng.Intn(n)
	s.mu.Unlock()
	if i > 0 {
		s.dec.lookaheadPicks.Add(1)
	}
	return i
}

// WaitPolicy implements eventloop.Scheduler.
func (s *Scheduler) WaitPolicy() (int, time.Duration, time.Duration) {
	return s.params.WorkerDoF, s.params.WorkerMaxDelay, s.params.WorkerEpollThreshold
}
