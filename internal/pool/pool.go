// Package pool implements the libuv-style worker pool: a task queue consumed
// by workers, each completed task landing on a done queue whose completion
// callback runs on the event loop (paper §2.2, §4.2.3). Workers are clock
// participants (vclock.Proc): goroutines under wall time, steps run by the
// goroutine driving a virtual clock.
//
// Two behaviours matter for schedule fuzzing (§4.3.3):
//
//   - Task pick order. Stock libuv workers take tasks FIFO; the fuzzer
//     simulates multiple workers by looking ahead "degrees of freedom" tasks
//     and picking one at random, optionally waiting for the queue to fill.
//   - Done-queue (de)multiplexing. Stock libuv signals completion through a
//     single file descriptor, so one loop wakeup drains *every* completed
//     task consecutively. The fuzzer assigns each task its own pollable
//     completion event so done callbacks interleave with everything else.
//
// The pool is loop-agnostic: completion events are handed to a Post function
// supplied by the owner, and scheduling decisions are delegated to a Picker
// (implemented by the nodefz scheduler).
package pool

import (
	"sync"
	"time"

	"nodefz/internal/metrics"
	"nodefz/internal/oracle"
	"nodefz/internal/vclock"
)

// Task is one unit of work offloaded to the pool, like a libuv uv_work_t:
// Fn runs on a worker, Done runs on the event loop afterwards.
type Task struct {
	// Name labels the task in schedules and scheduler decisions.
	Name string
	// Fn is the work function, executed by a worker.
	Fn func() (any, error)
	// Done is the completion callback, executed on the event loop with Fn's
	// results. May be nil.
	Done func(result any, err error)
	// Latency is simulated service time charged to the worker (substrates
	// use it to model disk or resolver delay). In wall mode it is slept
	// inside the serialized region, exactly where substrates historically
	// slept inside Fn; under a virtual clock the worker's step sleeps it
	// before taking the run lock, because a step must never wait while
	// holding a lock another step needs.
	Latency time.Duration
	// ORef is the oracle unit that submitted the task; the Done callback
	// executes as a unit that happens-after it. Zero when the oracle is
	// off.
	ORef oracle.Ref

	result any
	err    error
}

// Picker supplies the worker-side scheduling decisions. The nodefz scheduler
// implements it; vanilla behaviour is FIFO with no waiting.
type Picker interface {
	// PickTask selects among the first n queued tasks; 0 <= PickTask(n) < n.
	PickTask(n int) int
	// WaitPolicy returns the lookahead degrees of freedom (<0 unlimited),
	// the total maximum wait for the queue to fill, and the maximum time the
	// event loop may be left sitting in its poll phase meanwhile.
	WaitPolicy() (dof int, maxDelay, pollThreshold time.Duration)
}

// FIFOPicker is the vanilla policy: always take the head of the queue,
// never wait.
type FIFOPicker struct{}

// PickTask implements Picker.
func (FIFOPicker) PickTask(int) int { return 0 }

// WaitPolicy implements Picker.
func (FIFOPicker) WaitPolicy() (int, time.Duration, time.Duration) { return 1, 0, 0 }

// Config assembles a Pool.
type Config struct {
	// Size is the number of workers. Must be >= 1.
	Size int
	// Picker supplies scheduling decisions; nil means FIFOPicker.
	Picker Picker
	// RunLock, when non-nil, is held around every task execution, and the
	// owning loop holds it around every callback: the serialization step of
	// §4.3.3. Nil means tasks run concurrently with loop callbacks.
	RunLock sync.Locker
	// Demux selects per-task completion events instead of the multiplexed
	// done queue.
	Demux bool
	// Post delivers a ready completion callback to the event loop's poll
	// phase, threading the submitting oracle unit along. Required.
	Post func(kind, label string, ref oracle.Ref, cb func())
	// Probe is the concurrency oracle; the multiplexed done-queue drain
	// uses it to bracket each completion as its own sub-unit with its
	// task's submit edge. Nil when the oracle is off.
	Probe *oracle.Tracker
	// Record, when non-nil, is called as each task begins executing on a
	// worker ("work" entries in the type schedule).
	Record func(kind, label string)
	// TimeInPoll reports how long the owning loop has been blocked in its
	// poll phase (zero when it is not). Used for the "epoll threshold" wait
	// limit. Nil means the limit is ignored.
	TimeInPoll func() time.Duration
	// Metrics receives pool activity: task/done queue depths, task
	// durations, worker busy time. Nil turns metrics off: no instruments
	// are resolved and no task is timed.
	Metrics *metrics.Registry
	// Clock is the pool's time source for the lookahead wait; the workers
	// are participants of it. Nil means vclock.Wall.
	Clock vclock.Clock
}

// Pool is a worker pool. Create with New, feed with Submit, and shut down
// with Shutdown (from the owning loop's step) or Close.
type Pool struct {
	cfg Config

	clk     vclock.Clock
	virtual bool

	mu      vclock.Mutex // bound to clk
	queue   []*Task
	doneq   []*Task // multiplexed done queue (Demux == false)
	closed  bool
	workers []*worker
	group   vclock.Group

	// idle is the FIFO of workers parked for want of a task; a submit wakes
	// the first. fill is the FIFO of workers waiting for the lookahead
	// window to fill; each nudge (the queue grew, the loop entered poll)
	// wakes the first. Every wake carries a run grant.
	idle []*worker
	fill []*worker

	// stats, guarded by mu
	executed int

	// Metric handles, resolved once in New (lock-free to record); nil, and
	// so no-ops, when metrics are off.
	mSubmitted  *metrics.Counter   // pool.tasks_submitted
	mExecuted   *metrics.Counter   // pool.tasks_executed
	mBusyNS     *metrics.Counter   // pool.busy_ns: total worker time in task Fns
	mQueueDepth *metrics.Histogram // pool.queue_depth: task queue length at submit
	mDoneDepth  *metrics.Histogram // pool.done_depth: multiplexed done-queue length
	mPickWindow *metrics.Histogram // pool.pick_window: lookahead window at each take
	mTaskNS     *metrics.Histogram // pool.task_ns: per-task execution time
}

// New spawns the workers and returns the pool.
func New(cfg Config) *Pool {
	if cfg.Size < 1 {
		cfg.Size = 1
	}
	if cfg.Picker == nil {
		cfg.Picker = FIFOPicker{}
	}
	if cfg.Post == nil {
		panic("pool: Config.Post is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Wall{}
	}
	p := &Pool{cfg: cfg, clk: cfg.Clock}
	_, p.virtual = cfg.Clock.(*vclock.Virtual)
	p.mu.Bind(cfg.Clock)
	if reg := cfg.Metrics; reg != nil {
		p.mSubmitted = reg.Counter("pool.tasks_submitted")
		p.mExecuted = reg.Counter("pool.tasks_executed")
		p.mBusyNS = reg.Counter("pool.busy_ns")
		p.mQueueDepth = reg.Histogram("pool.queue_depth", metrics.DepthBounds())
		p.mDoneDepth = reg.Histogram("pool.done_depth", metrics.DepthBounds())
		p.mPickWindow = reg.Histogram("pool.pick_window", metrics.DepthBounds())
		p.mTaskNS = reg.Histogram("pool.task_ns", metrics.DurationBounds())
	}
	p.workers = make([]*worker, cfg.Size)
	for i := range p.workers {
		w := &worker{p: p}
		w.proc.Init(p.clk, 1, w.step)
		p.workers[i] = w
	}
	p.spawnWorkers()
	return p
}

// Submit queues a task for execution. It is safe to call from any
// goroutine. Tasks submitted while the pool is closed are buffered and run
// after Restart — the loop-between-runs case.
func (p *Pool) Submit(t *Task) {
	p.mu.Lock()
	p.queue = append(p.queue, t)
	depth := len(p.queue)
	// Wake exactly one idle worker per submit.
	if len(p.idle) > 0 {
		wakeFirst(&p.idle)
	}
	p.pokeFillLocked()
	p.mu.Unlock()
	p.mSubmitted.Inc()
	p.mQueueDepth.Observe(int64(depth))
}

// pokeFillLocked nudges the first lookahead-waiting worker. Caller holds
// p.mu.
func (p *Pool) pokeFillLocked() {
	if len(p.fill) > 0 {
		wakeFirst(&p.fill)
	}
}

// wakeFirst removes the first worker of the FIFO q and wakes it with a run
// grant.
func wakeFirst(q *[]*worker) {
	w := (*q)[0]
	n := copy(*q, (*q)[1:])
	(*q)[n] = nil
	*q = (*q)[:n]
	w.proc.Notify(true)
}

// PokeWaiters tells lookahead-waiting workers that the owning loop's state
// changed (it entered its poll phase, starting the epoll-threshold clock) so
// they can rebound their wait. Safe from any goroutine.
func (p *Pool) PokeWaiters() {
	p.mu.Lock()
	p.pokeFillLocked()
	p.mu.Unlock()
}

// QueueLen reports the number of tasks waiting to be executed.
func (p *Pool) QueueLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// Executed reports the total number of tasks that have begun execution.
func (p *Pool) Executed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.executed
}

// Shutdown stops the workers once the queue drains: it wakes every waiting
// worker, with a run grant each, and returns the group the workers exit
// from, for the owning loop's step to Await. Completion events already
// posted to the loop are unaffected, and Restart brings the pool back.
func (p *Pool) Shutdown() *vclock.Group {
	p.mu.Lock()
	p.closed = true
	for len(p.fill) > 0 {
		wakeFirst(&p.fill)
	}
	for len(p.idle) > 0 {
		wakeFirst(&p.idle)
	}
	p.mu.Unlock()
	return &p.group
}

// Close shuts the pool down and waits for the workers to exit. Call it
// from outside any step.
func (p *Pool) Close() { vclock.Join(p.clk, p.Shutdown()) }

// Reset re-arms a closed pool for a new trial: the task and done queues are
// truncated in place (keeping their backing arrays) and the counters
// rewind. The caller must have shut the pool down — every worker exited —
// and owns resetting the shared metrics registry; Restart brings the
// workers back.
func (p *Pool) Reset() {
	p.mu.Lock()
	clear(p.queue)
	p.queue = p.queue[:0]
	clear(p.doneq)
	p.doneq = p.doneq[:0]
	p.executed = 0
	for _, w := range p.workers {
		w.proc.Drain()
	}
	p.mu.Unlock()
}

// Restart re-spawns the workers of a closed pool; a no-op on a running
// one. The owning loop calls it at the start of each Run so work queued
// between runs executes.
func (p *Pool) Restart() {
	p.mu.Lock()
	if !p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = false
	p.mu.Unlock()
	p.spawnWorkers()
}

// spawnWorkers starts the workers; under a virtual clock the spawn order
// is their place in the run order.
func (p *Pool) spawnWorkers() {
	for _, w := range p.workers {
		w.at, w.task = wTake, nil
		w.proc.Spawn(&p.group)
	}
}

// worker is one pool worker as a clock participant. Its step takes a task
// (waiting as the Picker's policy says) and runs it.
type worker struct {
	p    *Pool
	proc vclock.Proc
	at   int   // resume point: wTake, wFill or wRun
	task *Task // taken, not yet run
	// The lookahead wait in progress (wFill): the policy's degrees of
	// freedom and poll threshold, and the fill deadline (a Nanos reading).
	dof           int
	pollThreshold time.Duration
	deadline      int64
}

// Resume points of a worker's step.
const (
	wTake = iota // take the next task
	wFill        // a lookahead wait is over
	wRun         // the taken task's virtual latency has elapsed
)

func (w *worker) step() vclock.Wait {
	p := w.p
	for {
		if w.at != wRun {
			p.mu.Lock()
			wait, ok := w.take()
			p.mu.Unlock()
			if !ok {
				return wait
			}
			if w.task.Latency > 0 && p.virtual {
				w.at = wRun
				return vclock.Sleep(w.task.Latency)
			}
		}
		w.run()
		w.at = wTake
	}
}

// take moves the next task into w.task, honouring the Picker's wait
// policy, and reports true — or returns the wait the worker must take
// first. Caller holds p.mu.
func (w *worker) take() (vclock.Wait, bool) {
	p := w.p
	if w.at == wFill {
		// Back from a lookahead wait: leave the fill FIFO (the deadline may
		// have ended the wait, not a nudge) and drop a nudge that raced it.
		// A sibling worker may have drained the queue meanwhile, in which
		// case start over.
		for i, f := range p.fill {
			if f == w {
				p.fill = append(p.fill[:i], p.fill[i+1:]...)
				break
			}
		}
		w.proc.Drain()
		if len(p.queue) == 0 {
			w.at = wTake
		}
	}
	if w.at == wTake {
		if len(p.queue) == 0 {
			if p.closed {
				return vclock.Exit(), false
			}
			p.idle = append(p.idle, w)
			return vclock.Park(), false
		}
		var maxDelay time.Duration
		w.dof, maxDelay, w.pollThreshold = p.cfg.Picker.WaitPolicy()
		if maxDelay > 0 && (w.dof < 0 || len(p.queue) < w.dof) {
			w.at, w.deadline = wFill, vclock.AddNanos(p.clk.Nanos(), maxDelay)
		}
	}
	if w.at == wFill {
		if d, ok := w.fillWait(); ok {
			p.fill = append(p.fill, w)
			return vclock.After(d), false
		}
	}

	window := len(p.queue)
	if w.dof > 0 && w.dof < window {
		window = w.dof
	}
	p.mPickWindow.Observe(int64(window))
	i := 0
	if window > 1 {
		i = p.cfg.Picker.PickTask(window)
		if i < 0 || i >= window {
			i = 0
		}
	}
	w.task = p.queue[i]
	p.queue = append(p.queue[:i:i], p.queue[i+1:]...)
	p.executed++
	p.mExecuted.Inc()
	return vclock.Wait{}, true
}

// fillWait returns how long the worker should wait for the queue to fill
// up to the lookahead window (§4.3.4, "Scheduling the Worker Pool"): the
// wait ends when the window fills, at the fill deadline, once the event
// loop has sat in poll for the policy's threshold, or when the pool closes.
// ok is false when one of those already holds. Caller holds p.mu.
func (w *worker) fillWait() (d time.Duration, ok bool) {
	p := w.p
	if p.closed || (w.dof >= 0 && len(p.queue) >= w.dof) {
		return 0, false
	}
	d = time.Duration(w.deadline - p.clk.Nanos())
	if d <= 0 {
		return 0, false
	}
	if p.cfg.TimeInPoll != nil && w.pollThreshold > 0 {
		tip := p.cfg.TimeInPoll()
		if tip >= w.pollThreshold {
			return 0, false
		}
		// The loop is sitting in poll: the threshold trips before our fill
		// deadline, so bound the wait by it. (When the loop enters poll
		// mid-wait it pokes us and we rebound here.)
		if tip > 0 && w.pollThreshold-tip < d {
			d = w.pollThreshold - tip
		}
	}
	return d, true
}

// run executes the taken task under the run lock and routes its
// completion to the loop.
func (w *worker) run() {
	p, t := w.p, w.task
	w.task = nil
	if p.cfg.RunLock != nil {
		p.cfg.RunLock.Lock()
	}
	if p.cfg.Record != nil {
		p.cfg.Record("work", t.Name)
	}
	if t.Latency > 0 && !p.virtual {
		time.Sleep(t.Latency)
	}
	if p.cfg.Metrics == nil {
		t.result, t.err = t.Fn()
	} else {
		start := time.Now()
		t.result, t.err = t.Fn()
		busy := time.Since(start)
		p.mBusyNS.Add(int64(busy))
		p.mTaskNS.Observe(int64(busy))
	}
	if p.cfg.RunLock != nil {
		p.cfg.RunLock.Unlock()
	}
	p.complete(t)
}

// complete routes the finished task to the loop: either as its own poll
// event (demultiplexed) or through the shared done queue (multiplexed, the
// stock libuv behaviour).
func (p *Pool) complete(t *Task) {
	if p.cfg.Demux {
		p.cfg.Post("work-done", t.Name, t.ORef, func() {
			if t.Done != nil {
				t.Done(t.result, t.err)
			}
		})
		return
	}
	p.mu.Lock()
	p.doneq = append(p.doneq, t)
	first := len(p.doneq) == 1
	depth := len(p.doneq)
	p.mu.Unlock()
	p.mDoneDepth.Observe(int64(depth))
	if first {
		// One wakeup drains the whole done queue: the multiplexing that
		// §4.3.1 calls out as hostile to fuzzing. Every done callback that
		// has accumulated by the time the loop handles this event runs
		// consecutively, with nothing interleaved.
		p.cfg.Post("work-done", "done-queue", oracle.Ref{}, p.drainDone)
	}
}

// drainDone is the multiplexed done queue's poll-event callback. Each
// completion runs as its own nested oracle unit carrying its task's
// submit edge — the drain wrapper itself has no single cause.
func (p *Pool) drainDone() {
	for {
		p.mu.Lock()
		batch := p.doneq
		p.doneq = nil
		p.mu.Unlock()
		if len(batch) == 0 {
			return
		}
		for _, t := range batch {
			var tok oracle.Token
			if p.cfg.Probe != nil {
				tok = p.cfg.Probe.Begin("work-done", t.Name, t.ORef)
			}
			if t.Done != nil {
				t.Done(t.result, t.err)
			}
			if p.cfg.Probe != nil {
				p.cfg.Probe.End(tok)
			}
		}
	}
}
