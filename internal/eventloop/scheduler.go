package eventloop

import (
	"time"

	"nodefz/internal/oracle"
)

// Event is one ready callback awaiting execution in the poll phase — the
// analogue of a ready epoll file descriptor in libuv. Events are produced by
// Sources (network traffic, completed worker-pool tasks, ...) and consumed
// by the loop, which hands the ready list to the Scheduler before executing
// anything (paper §4.3.2).
type Event struct {
	// Kind is the callback type ("net-read", "work-done", ...) used for
	// type-schedule recording (§5.3) and for scheduler decisions.
	Kind string
	// Label is free-form detail, e.g. the connection or task name.
	Label string
	// CB is the application callback. It runs on the loop goroutine.
	CB func()

	src *Source
	// oref is the oracle unit that caused this event (the sender of a
	// network message, the submitter of a pool task); zero when the oracle
	// is off or the producer is external.
	oref oracle.Ref
}

// Scheduler decides which pending events to handle and in what order
// (paper §4.3.4). The event loop and the worker pool call these hooks; the
// nodefz scheduler in internal/core implements them from the Table 3
// parameters, while VanillaScheduler implements the unperturbed behaviour.
//
// Hooks may be called from the loop goroutine (FilterTimers, ShuffleReady,
// DeferClose) and from worker-pool goroutines (PickTask, WaitPolicy);
// implementations must be safe for that. One scheduler may also serve
// several loops at once: every node loop of a cluster trial shares the
// trial's scheduler.
type Scheduler interface {
	// Name identifies the scheduler in reports ("nodeV", "nodeFZ", ...).
	Name() string

	// Serialize reports whether loop callbacks and worker-pool task
	// executions must be mutually exclusive (§4.3.3, first step).
	Serialize() bool

	// DemuxDone reports whether each completed worker-pool task is delivered
	// as its own poll event (§4.3.3, third step). When false the done queue
	// is multiplexed as in stock libuv: one wakeup drains every completed
	// task consecutively.
	DemuxDone() bool

	// PoolSize maps the application-requested worker count to the effective
	// one (the fuzzer forces 1 and simulates multiple workers via lookahead).
	PoolSize(requested int) int

	// FilterTimers is given the number of timers currently due, in
	// {timeout, registration time} order, and returns how many of them to
	// run this iteration. If run < due, the remaining timers are deferred to
	// the next iteration (short-circuit, preserving order) and the loop
	// sleeps for delay before continuing.
	FilterTimers(due int) (run int, delay time.Duration)

	// ShuffleReady splits the ready event list into the events to run this
	// iteration (in execution order) and the events to defer to the next
	// iteration, appending them to run and deferred and returning the
	// extended slices. Their union must be a permutation of ready.
	//
	// The loop owns all three slices: run and deferred are its own empty
	// buffers, and ready must not be modified (the loop's legality pass
	// reads arrival order from it). A scheduler must not return memory it
	// keeps: it may serve several loops, and a result in its own scratch
	// would be overwritten by another loop's call while the first loop is
	// still executing it.
	ShuffleReady(ready, run, deferred []*Event) ([]*Event, []*Event)

	// DeferClose reports whether the close callback for the named handle
	// should be deferred until the next loop iteration.
	DeferClose(label string) bool

	// PickTask selects which of the first n queued worker-pool tasks the
	// worker should execute next, simulating multiple workers (§4.3.3,
	// second step). 0 <= PickTask(n) < n.
	PickTask(n int) int

	// WaitPolicy returns the worker-pool lookahead parameters: the number of
	// tasks to wait for (dof, <0 meaning unlimited), the total maximum time
	// to wait, and the maximum time the event loop may sit in the poll phase
	// while waiting (the "epoll threshold").
	WaitPolicy() (dof int, maxDelay, pollThreshold time.Duration)
}

// Recorder receives one call per executed callback, in execution order. It
// is how type schedules (§5.3) are captured. Implementations must be safe
// for concurrent use: under a non-serializing scheduler, worker-pool task
// records are concurrent with loop callback records.
type Recorder interface {
	Record(kind, label string)
}

type nopRecorder struct{}

func (nopRecorder) Record(string, string) {}
