package eventloop

import "time"

// VanillaScheduler reproduces stock Node.js/libuv behaviour (the paper's
// nodeV baseline): timers run as soon as due, ready events run in arrival
// order, close callbacks are never deferred, workers take tasks FIFO
// without waiting, the done queue stays multiplexed, and worker tasks run
// concurrently with loop callbacks.
//
// Under VanillaScheduler the only nondeterminism is the runtime's own:
// goroutine scheduling and real I/O/timer arrival order — the variance
// §4.2 catalogues, unamplified.
type VanillaScheduler struct{}

var _ Scheduler = VanillaScheduler{}

// Name implements Scheduler.
func (VanillaScheduler) Name() string { return "nodeV" }

// Serialize implements Scheduler.
func (VanillaScheduler) Serialize() bool { return false }

// FilterTimers implements Scheduler: every due timer runs.
func (VanillaScheduler) FilterTimers(due int) (int, time.Duration) { return due, 0 }

// ShuffleReady implements Scheduler: arrival order, nothing deferred.
func (VanillaScheduler) ShuffleReady(ready, run, deferred []*Event) ([]*Event, []*Event) {
	return append(run, ready...), deferred
}

// DeferClose implements Scheduler.
func (VanillaScheduler) DeferClose(string) bool { return false }

// PickTask implements Scheduler: FIFO.
func (VanillaScheduler) PickTask(int) int { return 0 }

// WaitPolicy implements Scheduler: never wait for the queue to fill.
func (VanillaScheduler) WaitPolicy() (int, time.Duration, time.Duration) { return 1, 0, 0 }
