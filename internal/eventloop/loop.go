// Package eventloop implements the Asymmetric Multi-Process Event-Driven
// (AMPED) runtime the paper targets (§2.1): a single-threaded event loop in
// the style of libuv plus a worker pool, with hooks at every point of
// nondeterminism so a Scheduler — in particular the Node.fz scheduler in
// internal/core — can perturb the schedule.
//
// Each loop iteration examines, in turn: timers, pending callbacks,
// idle/prepare handles, poll (I/O), timers again, check handles
// (SetImmediate), and close callbacks — the phase order §4.1 describes.
// Every callback runs on the single loop goroutine; a NextTick microtask
// queue drains after each callback, before any other event, matching
// process.nextTick.
package eventloop

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nodefz/internal/metrics"
	"nodefz/internal/oracle"
	"nodefz/internal/pool"
	"nodefz/internal/vclock"
)

// Standard callback-kind names used in type schedules. Substrates define
// their own kinds (e.g. "net-read", "kv-reply") with the same convention.
const (
	KindTimer     = "timer"
	KindImmediate = "immediate"
	KindTick      = "tick"
	KindPending   = "pending"
	KindClose     = "close"
	KindWork      = "work"      // task executing on a worker goroutine
	KindWorkDone  = "work-done" // completion callback on the loop
)

// Options configures a Loop.
type Options struct {
	// Scheduler decides event ordering. Nil means VanillaScheduler: the
	// faithful, unperturbed libuv behaviour.
	Scheduler Scheduler
	// Recorder captures the type schedule. Nil disables recording.
	Recorder Recorder
	// PoolSize is the requested worker-pool size (like UV_THREADPOOL_SIZE,
	// default 4). A serializing scheduler (the fuzzer) overrides it with 1.
	PoolSize int
	// Metrics is the registry the loop (and its worker pool) records
	// per-phase counts, durations, queue depths, and timer lateness
	// ("loop.lag_ns") into. Nil turns metrics off: no instruments are
	// resolved and no phase, task, or timer is timed.
	Metrics *metrics.Registry
	// Clock is the loop's time source. Nil means vclock.Wall (real time).
	// A vclock.Virtual clock runs timer waits, injected delays, and the
	// pool's lookahead window in simulated time: a trial that "waits"
	// 500ms completes in microseconds of CPU.
	Clock vclock.Clock
	// Probe is the concurrency-violation oracle (internal/oracle): the
	// loop brackets every callback as a unit and threads registration
	// refs through timers, ticks, immediates, pending/close requests, and
	// pool submissions so the tracker sees the substrate's causality. Nil
	// (the default) reduces every hook to a nil check.
	Probe *oracle.Tracker
}

// The loop phases, indexing the per-phase instruments. "ticks" covers the
// NextTick microtask queue, which drains after every callback; "check"
// covers check handles plus immediates.
const (
	phTicks = iota
	phTimers
	phPending
	phIdle
	phPrepare
	phPoll
	phCheck
	phClose
	numPhases
)

var phaseNames = [numPhases]string{"ticks", "timers", "pending", "idle", "prepare", "poll", "check", "close"}

// phaseOrder is one loop iteration (§4.1), timers appearing twice.
var phaseOrder = [...]int{phTicks, phTimers, phPending, phIdle, phPrepare, phPoll, phTimers, phCheck, phClose}

// Stats counts scheduler-visible activity during a run; used by tests and
// the fzrun tool.
type Stats struct {
	Callbacks      int64 // callbacks executed on the loop (all kinds)
	TimersRun      int64
	TimersDeferred int64
	EventsRun      int64
	EventsDeferred int64
	ClosesDeferred int64
	TasksExecuted  int64
	Iterations     int64
}

// Loop is a single-threaded event loop. Create it with New, register work
// (timers, sources, tasks), then call Run, which returns when no live
// handles remain, like uv_run(UV_RUN_DEFAULT).
//
// Methods that register or cancel work (SetTimeout, NextTick, QueueWork,
// Source.Post, ...) are safe to call both before Run and from loop
// callbacks. Source.Post and QueueWork are additionally safe from other
// goroutines, which is how substrates inject I/O events.
type Loop struct {
	sched Scheduler
	rec   Recorder
	clk   vclock.Clock
	probe *oracle.Tracker

	mu sync.Mutex
	// proc is the loop as a clock participant; its step is step. Only a
	// notify posted while the loop is inside poll's wait carries a run
	// grant (see wakeup).
	proc        vclock.Proc
	pollBlocked bool        // loop is inside poll's wait; guarded by mu
	pending     []*Event    // ready events (the "epoll results")
	deferred    []*Event    // events the scheduler pushed to the next iteration
	refs        int         // live handles + outstanding work
	stopped     atomic.Bool // read lock-free on the per-event hot path
	// evFree and crFree recycle executed events and close requests, and the
	// scratch slices below keep phase batches off the heap; together they
	// make a steady-state iteration (and an arena-reused trial) allocate
	// only what the application itself allocates. Freelists are guarded by
	// mu; the scratches are loop-goroutine-only.
	evFree  []*Event
	crFree  []*closeReq
	srcAll  []*Source // every source the current trial created, retired at Reset
	srcFree []*Source

	// Loop-goroutine-only state (no locking needed).
	timers       timerHeap
	timerSeq     uint64
	ticks        []tickFn
	immediates   []*immediateReq
	pendingCBs   []*Event
	closing      []*closeReq
	running      bool
	dueScratch   []*Timer // runTimers batch
	readyScratch []*Event // poll batch
	runScratch   []*Event // poll batch's run list (ShuffleReady's output)
	defScratch   []*Event // poll batch's deferred list (ShuffleReady's output)
	pendScratch  []*Event // pending-phase batch
	// Initial backing arrays of runScratch and defScratch: a loop built per
	// trial (single-shot runs, every cluster node) polls small batches, so
	// these keep its ShuffleReady output off the heap.
	runInline, defInline [8]*Event

	// The step's resume point: at says how the next step starts, and phase
	// indexes phaseOrder within the current iteration (len(phaseOrder)
	// between iterations).
	at      int
	phase   int
	phaseT0 time.Time // when the current phase began (timed runs only)

	phaseHandles map[PhaseKind][]*PhaseHandle

	pool    *pool.Pool
	runLock sync.Locker // serializes callbacks with worker tasks under the fuzzer

	pollStart atomic.Int64 // unix-nanos when the loop entered poll; 0 otherwise
	depth     atomic.Int32 // callback nesting guard, used to detect overlap

	stats Stats

	// Metrics. The instrument handles are resolved once in New so the hot
	// path is a single atomic add; with no registry they stay nil and every
	// recording is a no-op. curPhase is loop-goroutine-only.
	reg      *metrics.Registry
	phaseCB  [numPhases]*metrics.Counter
	phaseNS  [numPhases]*metrics.Histogram
	lagNS    *metrics.Histogram
	curPhase int
	atExit   []func()

	// locals is loop-scoped named storage for layers above the loop
	// (the asyncutil promise layer keeps its unhandled-rejection tracker
	// here) so per-loop state needs no package-global registry keyed by
	// loop pointer. Guarded by mu.
	locals map[string]any
}

type tickFn struct {
	label string
	fn    func()
	oref  oracle.Ref
	// xref is an optional second happens-before predecessor (see
	// NextTickJoin): the promise layer passes the unit that *settled* a
	// promise, while oref stays the unit that *registered* the callback.
	xref oracle.Ref
}

type immediateReq struct {
	label string
	fn    func()
	oref  oracle.Ref
}

type closeReq struct {
	label string
	fn    func()
	oref  oracle.Ref
}

type nopLocker struct{}

func (nopLocker) Lock()   {}
func (nopLocker) Unlock() {}

// New builds a loop and starts its worker pool.
func New(opts Options) *Loop {
	if opts.Scheduler == nil {
		opts.Scheduler = VanillaScheduler{}
	}
	if opts.Recorder == nil {
		opts.Recorder = nopRecorder{}
	}
	if opts.PoolSize <= 0 {
		opts.PoolSize = 4
	}
	if opts.Clock == nil {
		opts.Clock = vclock.Wall{}
	}
	l := &Loop{
		sched:        opts.Scheduler,
		rec:          opts.Recorder,
		clk:          opts.Clock,
		probe:        opts.Probe,
		phaseHandles: make(map[PhaseKind][]*PhaseHandle),
		reg:          opts.Metrics,
	}
	l.runScratch, l.defScratch = l.runInline[:0], l.defInline[:0]
	l.proc.Init(l.clk, 0, l.step)
	if l.reg != nil {
		for p := 0; p < numPhases; p++ {
			l.phaseCB[p] = l.reg.Counter("loop.phase." + phaseNames[p] + ".callbacks")
			l.phaseNS[p] = l.reg.Histogram("loop.phase."+phaseNames[p]+".ns", metrics.DurationBounds())
		}
		l.lagNS = l.reg.Histogram("loop.lag_ns", metrics.DurationBounds())
	}
	// Serialized mode (§4.3.3): callbacks and tasks exclude each other, one
	// worker runs the tasks, and each completion is its own poll event.
	serialize := l.sched.Serialize()
	size, workLock := opts.PoolSize, sync.Locker(nil)
	l.runLock = nopLocker{}
	if serialize {
		l.runLock = &sync.Mutex{}
		size, workLock = 1, l.runLock
	}
	l.pool = pool.New(pool.Config{
		Size:    size,
		Picker:  l.sched,
		RunLock: workLock,
		Demux:   serialize,
		Metrics: l.reg,
		Clock:   l.clk,
		Probe:   opts.Probe,
		Post: func(kind, label string, ref oracle.Ref, cb func()) {
			l.postEvent(kind, label, cb, nil, ref)
		},
		Record: func(kind, label string) {
			atomic.AddInt64(&l.stats.TasksExecuted, 1)
			l.rec.Record(kind, label)
		},
		TimeInPoll: l.timeInPoll,
	})
	return l
}

// Scheduler returns the loop's scheduler.
func (l *Loop) Scheduler() Scheduler { return l.sched }

// Clock returns the loop's time source. Substrates that sleep or stamp
// deadlines must use it instead of the time package so trials stay correct
// (and fast) under a virtual clock.
func (l *Loop) Clock() vclock.Clock { return l.clk }

// Probe returns the loop's concurrency oracle; nil when the oracle is off.
// Every oracle method is safe on a nil receiver, so substrates and
// applications may call l.Probe().Access(...) unconditionally.
func (l *Loop) Probe() *oracle.Tracker { return l.probe }

// oracleRef captures the currently-executing oracle unit for a
// registration made from loop context; the zero Ref when the oracle is
// off.
func (l *Loop) oracleRef() oracle.Ref {
	if l.probe == nil {
		return oracle.Ref{}
	}
	return l.probe.Current()
}

// Stats returns a snapshot of the loop's counters.
func (l *Loop) Stats() Stats {
	return Stats{
		Callbacks:      atomic.LoadInt64(&l.stats.Callbacks),
		TimersRun:      atomic.LoadInt64(&l.stats.TimersRun),
		TimersDeferred: atomic.LoadInt64(&l.stats.TimersDeferred),
		EventsRun:      atomic.LoadInt64(&l.stats.EventsRun),
		EventsDeferred: atomic.LoadInt64(&l.stats.EventsDeferred),
		ClosesDeferred: atomic.LoadInt64(&l.stats.ClosesDeferred),
		TasksExecuted:  atomic.LoadInt64(&l.stats.TasksExecuted),
		Iterations:     atomic.LoadInt64(&l.stats.Iterations),
	}
}

// ErrAlreadyRunning is returned by Run if the loop is running.
var ErrAlreadyRunning = errors.New("eventloop: loop already running")

// Run executes the loop until no live handles or queued work remain, or
// until Stop is called, then shuts the worker pool down. It must not be
// called concurrently with itself. Under a virtual clock the calling
// goroutine runs every participant on the clock meanwhile (see
// vclock.Proc.Run), so Run must not be called from inside a callback.
func (l *Loop) Run() error {
	if l.running {
		return ErrAlreadyRunning
	}
	l.running, l.at = true, atStart
	l.proc.Run()
	return nil
}

// Go spawns the loop as a participant of its clock, counted into g — the
// path for cluster nodes, where several loops share one virtual clock. Under
// a virtual clock the spawn fixes the loop's place in the run order and the
// loop runs when the goroutine driving the clock gets there; vclock.Join on
// g waits until it has finished. Under wall time it runs on a goroutine of
// its own.
//
// All setup that must precede the first iteration — listeners, timers,
// handlers — must happen before Go is called: under wall time the loop may
// begin iterating immediately.
func (l *Loop) Go(g *vclock.Group) {
	if l.running {
		panic(ErrAlreadyRunning)
	}
	l.running, l.at = true, atStart
	l.proc.Spawn(g)
}

// Resume points of the loop's step.
const (
	atStart = iota // Run or Go was just called
	atPoll         // poll's wait is over
	atDelay        // the timer phase's injected delay is over
	atExit         // the worker pool has shut down
)

// step runs the loop until it must wait — in poll, for the timer phase's
// injected delay, or for the worker pool to shut down at the end of Run —
// and returns that wait; the next step resumes where this one stopped.
//
// Each iteration walks phaseOrder: ticks queued outside any callback drain
// first (like process.nextTick from module scope), then timers, pending,
// idle, prepare, poll, timers again (§4.1), check, close. curPhase
// attributes executed callbacks to the phase, and with a metrics registry
// every phase is timed into its duration histogram.
func (l *Loop) step() vclock.Wait {
	switch l.at {
	case atStart:
		l.pool.Restart() // re-arm the workers when Run is called again
		l.phase = len(phaseOrder)
	case atPoll:
		l.exitPollWait()
		l.poll()
		l.endPhase()
	case atDelay:
		l.endPhase()
	case atExit:
		l.foldStats()
		for _, fn := range l.atExit {
			fn()
		}
		l.running = false
		return vclock.Exit()
	}
	for {
		if l.phase == len(phaseOrder) {
			if !l.alive() {
				l.at = atExit
				return vclock.Await(l.pool.Shutdown())
			}
			atomic.AddInt64(&l.stats.Iterations, 1)
			l.phase = 0
		}
		l.curPhase = phaseOrder[l.phase]
		if l.reg != nil {
			l.phaseT0 = time.Now()
		}
		switch l.curPhase {
		case phTicks:
			l.drainTicks()
		case phTimers:
			if d := l.runTimers(); d > 0 {
				// The short-circuit's injected delay (§4.3.4). Under the
				// virtual clock it advances simulated time instead of
				// burning wall time.
				l.at = atDelay
				return vclock.Sleep(d)
			}
		case phPending:
			l.runPendingPhase()
		case phIdle:
			l.runPhaseHandles(IdleHandle)
		case phPrepare:
			l.runPhaseHandles(PrepareHandle)
		case phPoll:
			if timeout := l.pollTimeout(); timeout != 0 {
				if l.enterPollWait() {
					l.at = atPoll
					return vclock.After(timeout)
				}
				l.exitPollWait()
			}
			l.poll()
		case phCheck:
			l.runPhaseHandles(CheckHandle)
			l.runImmediates()
		case phClose:
			l.runClosing()
		}
		l.endPhase()
	}
}

// endPhase closes the current phase and moves to the next.
func (l *Loop) endPhase() {
	if l.reg != nil {
		l.phaseNS[l.curPhase].Observe(int64(time.Since(l.phaseT0)))
	}
	l.phase++
}

// Reset re-arms a drained loop for another trial on the same clock,
// scheduler, recorder, probe, and metrics registry — the trial-arena path.
// All queues, timers, handles, locals, and counters rewind to the
// post-New state while every backing array and the worker pool (closed by
// the previous Run; Restart re-arms it) are kept.
//
// The caller must guarantee the loop is quiescent — Run has returned and no
// other goroutine still touches the loop — and owns resetting the
// collaborators New wired in: the scheduler (core.Scheduler.Reseed), the
// recorder, the metrics registry, the oracle tracker, and the virtual
// clock (whose Reset leaves exactly the loop's own registration standing,
// matching the clock entry New performed).
func (l *Loop) Reset() {
	l.mu.Lock()
	clear(l.pending)
	l.pending = l.pending[:0]
	clear(l.deferred)
	l.deferred = l.deferred[:0]
	clear(l.ticks)
	l.ticks = l.ticks[:0]
	clear(l.immediates)
	l.immediates = l.immediates[:0]
	clear(l.pendingCBs)
	l.pendingCBs = l.pendingCBs[:0]
	clear(l.closing)
	l.closing = l.closing[:0]
	for i, s := range l.srcAll {
		s.name = ""
		s.closed = false
		s.inflight = 0
		l.srcFree = append(l.srcFree, s)
		l.srcAll[i] = nil
	}
	l.srcAll = l.srcAll[:0]
	l.refs = 0
	l.stopped.Store(false)
	l.pollBlocked = false
	clear(l.locals)
	l.mu.Unlock()
	// Drop a wake left over from the trial's last moments.
	l.proc.Drain()
	clear(l.timers)
	l.timers = l.timers[:0]
	l.timerSeq = 0
	l.running = false
	clear(l.phaseHandles)
	clear(l.atExit)
	l.atExit = l.atExit[:0]
	l.curPhase = 0
	l.stats = Stats{}
	l.pollStart.Store(0)
	l.depth.Store(0)
	l.pool.Reset()
}

// RestartPool re-arms the worker pool of a Reset loop, respawning the
// workers. Run restarts a closed pool too, but a trial arena must spawn the
// workers at loop-acquisition time — before the trial's network engine
// spawns — so the virtual run order matches a freshly built world, where
// New itself starts the pool.
func (l *Loop) RestartPool() { l.pool.Restart() }

// AtExit registers fn to run after the loop drains and the pool shuts down,
// just before Run returns — the hook for end-of-run checks, such as listing
// the promise rejections nobody handled. Hooks run in registration order on
// the Run caller's goroutine, once per Run.
func (l *Loop) AtExit(fn func()) {
	l.atExit = append(l.atExit, fn)
}

// foldStats mirrors the Stats counters into the metrics registry as gauges
// so a Snapshot after Run carries them; gauges make repeated Runs
// idempotent (last totals win). With metrics off every lookup yields a
// nil gauge and the fold records nothing.
func (l *Loop) foldStats() {
	s := l.Stats()
	l.reg.Gauge("loop.iterations").Set(s.Iterations)
	l.reg.Gauge("loop.callbacks").Set(s.Callbacks)
	l.reg.Gauge("loop.timers_run").Set(s.TimersRun)
	l.reg.Gauge("loop.timers_deferred").Set(s.TimersDeferred)
	l.reg.Gauge("loop.events_run").Set(s.EventsRun)
	l.reg.Gauge("loop.events_deferred").Set(s.EventsDeferred)
	l.reg.Gauge("loop.closes_deferred").Set(s.ClosesDeferred)
	l.reg.Gauge("loop.tasks_executed").Set(s.TasksExecuted)
}

// Stop makes Run return as soon as the current phase completes. Safe from
// any goroutine.
func (l *Loop) Stop() {
	l.stopped.Store(true)
	l.wakeup()
}

// alive reports whether the loop has anything left to do.
func (l *Loop) alive() bool {
	if l.stopped.Load() {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Note: pending timers are not consulted directly — a ref'd timer holds
	// a loop reference until it fires or is stopped, and an unref'd timer
	// must not keep the loop alive (uv_unref semantics).
	return l.refs > 0 ||
		len(l.pending) > 0 || len(l.deferred) > 0 ||
		len(l.ticks) > 0 || len(l.immediates) > 0 ||
		len(l.pendingCBs) > 0 || len(l.closing) > 0
}

func (l *Loop) isStopped() bool {
	return l.stopped.Load()
}

// ref/unref track live handles, like uv_ref/uv_unref.
func (l *Loop) ref() {
	l.mu.Lock()
	l.refs++
	l.mu.Unlock()
}

func (l *Loop) unref() {
	l.mu.Lock()
	l.refs--
	if l.refs < 0 {
		l.mu.Unlock()
		panic("eventloop: handle refcount underflow")
	}
	l.mu.Unlock()
	l.wakeup()
}

func (l *Loop) wakeup() {
	// A wake aimed at a loop waiting in poll carries a run grant, which
	// gives the loop its place in the virtual run order. A wake sent while
	// the loop is anywhere else needs none — the loop notices the queued
	// work via pollTimeout before it waits again — and must not carry one:
	// the loop may be sleeping out an injected delay or awaiting its pool,
	// which no notify may cut short. Reading pollBlocked and posting under
	// l.mu makes the flag/token pairing atomic against poll's own
	// transitions under wall time.
	l.mu.Lock()
	l.proc.Notify(l.pollBlocked)
	l.mu.Unlock()
}

// getEventLocked hands out a recycled (or new) event. Caller holds mu.
func (l *Loop) getEventLocked() *Event {
	if n := len(l.evFree); n > 0 {
		ev := l.evFree[n-1]
		l.evFree[n-1] = nil
		l.evFree = l.evFree[:n-1]
		return ev
	}
	return &Event{}
}

// recycleEvents returns a batch of executed (or discarded) events to the
// freelist. Callers must be done with every element: nothing may retain the
// pointers afterwards (deferred events, in particular, must not be here).
func (l *Loop) recycleEvents(evs []*Event) {
	if len(evs) == 0 {
		return
	}
	l.mu.Lock()
	for _, ev := range evs {
		ev.Kind, ev.Label, ev.CB, ev.src, ev.oref = "", "", nil, nil, oracle.Ref{}
		l.evFree = append(l.evFree, ev)
	}
	l.mu.Unlock()
}

// postEvent queues one ready event, drawing it from the freelist.
func (l *Loop) postEvent(kind, label string, cb func(), src *Source, ref oracle.Ref) {
	l.mu.Lock()
	ev := l.getEventLocked()
	ev.Kind, ev.Label, ev.CB, ev.src, ev.oref = kind, label, cb, src, ref
	l.pending = append(l.pending, ev)
	l.mu.Unlock()
	l.wakeup()
}

// executeUnit runs one callback of the current phase through runUnit — ref
// is the registering unit, key (when non-nil) adds the per-source FIFO edge
// — and then drains the NextTick queue. It returns a Ref to the executed
// unit so interval timers can chain one firing to the next; the zero Ref
// when the oracle is off.
func (l *Loop) executeUnit(kind, label string, ref oracle.Ref, key any, cb func()) oracle.Ref {
	ran := l.runUnit(l.curPhase, kind, label, key, ref, oracle.Ref{}, cb)
	l.drainTicks()
	return ran
}

// runUnit is the one path by which a callback executes on the loop: it
// counts the callback against phase, takes the run lock (serialized mode),
// records it, guards against overlap and brackets it as an oracle unit whose
// predecessors are ref, xref and, for a non-nil key, the key's previous unit.
// It does not drain ticks, so a tick that queues ticks cannot recurse.
func (l *Loop) runUnit(phase int, kind, label string, key any, ref, xref oracle.Ref, cb func()) oracle.Ref {
	atomic.AddInt64(&l.stats.Callbacks, 1)
	l.phaseCB[phase].Inc()
	l.runLock.Lock()
	l.rec.Record(kind, label)
	if l.depth.Add(1) != 1 {
		panic("eventloop: overlapping loop callbacks")
	}
	var tok oracle.Token
	if l.probe != nil {
		tok = l.probe.BeginKeyed(kind, label, key, ref, xref)
	}
	cb()
	if l.probe != nil {
		l.probe.End(tok)
	}
	l.depth.Add(-1)
	l.runLock.Unlock()
	return tok.Ref()
}

// drainTicks runs queued NextTick callbacks, including ones they enqueue,
// before the loop proceeds to any other event.
func (l *Loop) drainTicks() {
	for {
		l.mu.Lock()
		if len(l.ticks) == 0 {
			l.mu.Unlock()
			return
		}
		t := l.ticks[0]
		l.ticks = l.ticks[1:]
		l.mu.Unlock()
		l.runUnit(phTicks, KindTick, t.label, nil, t.oref, t.xref, t.fn)
		l.unref()
	}
}

// --- timer phase ---------------------------------------------------------

// SetTimeout schedules cb to run once, at least d after now. Like Node's
// setTimeout there is no upper bound on lateness (§4.4).
func (l *Loop) SetTimeout(d time.Duration, cb func()) *Timer {
	return l.addTimer(d, 0, "", cb)
}

// SetTimeoutNamed is SetTimeout with a schedule label.
func (l *Loop) SetTimeoutNamed(label string, d time.Duration, cb func()) *Timer {
	return l.addTimer(d, 0, label, cb)
}

// SetInterval schedules cb to run every d until the returned Timer is
// stopped.
func (l *Loop) SetInterval(d time.Duration, cb func()) *Timer {
	return l.addTimer(d, d, "", cb)
}

// SetIntervalNamed is SetInterval with a schedule label.
func (l *Loop) SetIntervalNamed(label string, d time.Duration, cb func()) *Timer {
	return l.addTimer(d, d, label, cb)
}

func (l *Loop) addTimer(d, period time.Duration, label string, cb func()) *Timer {
	if d < 0 {
		d = 0
	}
	l.timerSeq++
	t := &Timer{
		loop:     l,
		cb:       cb,
		deadline: l.clk.Now().Add(d),
		dur:      d,
		period:   period,
		seq:      l.timerSeq,
		refed:    true,
		label:    label,
		oref:     l.oracleRef(),
	}
	heap.Push(&l.timers, t)
	l.ref()
	return t
}

// runTimers executes due timers in {deadline, registration} order, giving
// the scheduler the chance to defer a suffix of them (short-circuit,
// §4.3.4). It returns the injected delay the loop must then sleep, or 0.
func (l *Loop) runTimers() time.Duration {
	if l.isStopped() {
		return 0
	}
	now := l.clk.Now()
	due := l.dueScratch[:0]
	for l.timers.Len() > 0 && !l.timers[0].deadline.After(now) {
		due = append(due, heap.Pop(&l.timers).(*Timer))
	}
	l.dueScratch = due
	if len(due) == 0 {
		return 0
	}
	run, delay := l.sched.FilterTimers(len(due))
	if run > len(due) {
		run = len(due)
	}
	if run < 0 {
		run = 0
	}
	// Deferred timers go straight back on the heap; their (deadline, seq)
	// keys preserve the original order for the next iteration.
	for _, t := range due[run:] {
		heap.Push(&l.timers, t)
	}
	atomic.AddInt64(&l.stats.TimersDeferred, int64(len(due)-run))
	for _, t := range due[:run] {
		l.fireTimer(t)
	}
	clear(due)
	l.dueScratch = due[:0]
	if run < len(due) {
		return delay
	}
	return 0
}

// fireTimer runs one due timer. With a metrics registry it first records
// the timer's lateness — the clock time at firing minus its deadline — into
// "loop.lag_ns": the loop's scheduling lag at that deadline, fuzzer-injected
// delays included.
func (l *Loop) fireTimer(t *Timer) {
	if t.stopped {
		return
	}
	if l.lagNS != nil {
		l.lagNS.ObserveDuration(l.clk.Since(t.deadline))
	}
	if t.period > 0 {
		t.deadline = l.clk.Now().Add(t.period)
		heap.Push(&l.timers, t)
	} else {
		t.stopped = true
		if t.refed {
			t.refed = false
			l.unref()
		}
	}
	atomic.AddInt64(&l.stats.TimersRun, 1)
	ran := l.executeUnit(KindTimer, t.label, t.oref, nil, t.cb)
	if t.period > 0 {
		// Chain interval firings: the next firing happens-after this one
		// (the re-arm above runs before execute, so set the ref after).
		t.oref = ran
	}
}

// nextTimerWait returns how long poll may block before the next timer is
// due; ok is false when no timers are pending.
func (l *Loop) nextTimerWait() (time.Duration, bool) {
	if l.timers.Len() == 0 {
		return 0, false
	}
	d := l.clk.Until(l.timers[0].deadline)
	if d < 0 {
		d = 0
	}
	return d, true
}

// --- pending phase -------------------------------------------------------

// QueuePending schedules cb for the loop's "pending callbacks" phase, used
// by substrates to finish work deferred from a previous iteration.
func (l *Loop) QueuePending(label string, cb func()) {
	l.mu.Lock()
	ev := l.getEventLocked()
	ev.Kind, ev.Label, ev.CB, ev.oref = KindPending, label, cb, l.oracleRef()
	l.pendingCBs = append(l.pendingCBs, ev)
	l.refs++
	l.mu.Unlock()
	l.wakeup()
}

func (l *Loop) runPendingPhase() {
	l.mu.Lock()
	batch := append(l.pendScratch[:0], l.pendingCBs...)
	l.pendScratch = batch
	l.pendingCBs = l.pendingCBs[:0]
	l.mu.Unlock()
	for _, ev := range batch {
		l.executeUnit(ev.Kind, ev.Label, ev.oref, nil, ev.CB)
		l.unref()
	}
	l.recycleEvents(batch)
	l.pendScratch = batch[:0]
}

// --- poll phase ----------------------------------------------------------

func (l *Loop) timeInPoll() time.Duration {
	start := l.pollStart.Load()
	if start == 0 {
		return 0
	}
	return time.Duration(l.clk.Now().UnixNano() - start)
}

// poll runs the ready events once the step has waited for them (bounded by
// the next timer deadline and by pending immediates): the scheduler
// shuffles and defers the ready list before the loop executes it (§4.3.2).
func (l *Loop) poll() {
	if l.isStopped() {
		return
	}

	l.mu.Lock()
	ready := l.readyScratch[:0]
	ready = append(ready, l.deferred...)
	ready = append(ready, l.pending...)
	clear(l.deferred)
	l.deferred = l.deferred[:0]
	clear(l.pending)
	l.pending = l.pending[:0]
	l.mu.Unlock()
	l.readyScratch = ready
	if len(ready) == 0 {
		return
	}

	run, deferred := l.sched.ShuffleReady(ready, l.runScratch[:0], l.defScratch[:0])
	l.runScratch, l.defScratch = run[:0], deferred[:0]
	if len(run)+len(deferred) != len(ready) {
		panic(fmt.Sprintf("eventloop: scheduler %s lost events: %d+%d != %d",
			l.sched.Name(), len(run), len(deferred), len(ready)))
	}
	run, deferred = enforcePerSourceOrder(ready, run, deferred)
	if len(deferred) > 0 {
		l.mu.Lock()
		l.deferred = append(l.deferred, deferred...)
		l.mu.Unlock()
		atomic.AddInt64(&l.stats.EventsDeferred, int64(len(deferred)))
	}
	done := 0
	for _, ev := range run {
		if ev.src != nil && ev.src.isClosed() {
			// The handle was closed while the event sat in the queue; its
			// callbacks must no longer fire (like a closed uv handle).
			ev.src.release()
			done++
			continue
		}
		atomic.AddInt64(&l.stats.EventsRun, 1)
		// The source doubles as the oracle's FIFO key: the legality pass
		// guarantees same-source events execute in arrival order, which is
		// the per-connection happens-before edge.
		var key any
		if ev.src != nil {
			key = ev.src
		}
		l.executeUnit(ev.Kind, ev.Label, ev.oref, key, ev.CB)
		if ev.src != nil {
			ev.src.release()
		}
		done++
		if l.isStopped() {
			break
		}
	}
	// Deferred events stay live in l.deferred; everything that ran (or was
	// skipped as closed) is dead and goes back to the freelist.
	l.recycleEvents(run[:done])
}

// enterPollWait starts poll's wait and reports whether the loop must
// actually wait (the step then returns an After bounded by the poll
// timeout): while it waits, every notify it gets carries a run grant.
func (l *Loop) enterPollWait() bool {
	l.mu.Lock()
	l.pollBlocked = true
	l.mu.Unlock()
	l.pollStart.Store(l.clk.Now().UnixNano())
	// Workers waiting out the lookahead window bound their wait by how long
	// we sit in poll; tell them the clock just started.
	l.pool.PokeWaiters()
	// A token sent before pollBlocked became visible carries no grant.
	// Swallowing it here — and skipping the wait, since a wakeup means there
	// is work — keeps every token seen by the wait granted.
	return !l.proc.Drain()
}

// exitPollWait ends poll's wait. A token posted after the wait ended (a
// wall-time wakeup racing the deadline, or a second notify queued behind
// the one that ended it) must not survive into the phases below: its run
// grant would run the loop again for work that is already queued.
func (l *Loop) exitPollWait() {
	l.mu.Lock()
	l.pollBlocked = false
	l.mu.Unlock()
	l.proc.Drain()
	l.pollStart.Store(0)
}

// pollTimeout mirrors uv_backend_timeout: 0 when there is anything to do
// right now, the time until the next timer otherwise, and -1 (block
// indefinitely) when only external events can make progress.
func (l *Loop) pollTimeout() time.Duration {
	l.mu.Lock()
	busy := len(l.pending) > 0 || len(l.deferred) > 0 ||
		len(l.ticks) > 0 || len(l.immediates) > 0 ||
		len(l.pendingCBs) > 0 || len(l.closing) > 0 ||
		l.stopped.Load()
	refs := l.refs
	l.mu.Unlock()
	if busy {
		return 0
	}
	// An active idle handle must run every iteration: never block in poll.
	if l.hasActivePhase(IdleHandle) {
		return 0
	}
	if d, ok := l.nextTimerWait(); ok {
		return d
	}
	if refs > 0 {
		return -1
	}
	return 0
}

// --- check phase (immediates) and ticks ----------------------------------

// SetImmediate schedules cb for the check phase of the current (or next)
// loop iteration, after poll events — Node's setImmediate.
func (l *Loop) SetImmediate(cb func()) { l.SetImmediateNamed("", cb) }

// SetImmediateNamed is SetImmediate with a schedule label.
func (l *Loop) SetImmediateNamed(label string, cb func()) {
	l.mu.Lock()
	l.immediates = append(l.immediates, &immediateReq{label: label, fn: cb, oref: l.oracleRef()})
	l.refs++
	l.mu.Unlock()
	l.wakeup()
}

// NextTick schedules cb to run after the current callback completes, before
// any other event — Node's process.nextTick.
func (l *Loop) NextTick(cb func()) { l.NextTickNamed("", cb) }

// NextTickNamed is NextTick with a schedule label.
func (l *Loop) NextTickNamed(label string, cb func()) {
	l.mu.Lock()
	l.ticks = append(l.ticks, tickFn{label: label, fn: cb, oref: l.oracleRef()})
	l.refs++
	l.mu.Unlock()
	l.wakeup()
}

// NextTickJoin is NextTickNamed with an extra happens-before predecessor:
// the tick's oracle unit is ordered after both the registering unit (as
// always) and the unit named by join. The promise layer uses it so a
// settlement callback happens-after the callback that settled the promise
// even when the handler was attached from an unrelated callback — without
// it, a Then attached after settlement would look concurrent with the
// value's producer and the oracle would flag phantom races. The zero Ref
// degrades to plain NextTickNamed.
func (l *Loop) NextTickJoin(label string, join oracle.Ref, cb func()) {
	l.mu.Lock()
	l.ticks = append(l.ticks, tickFn{label: label, fn: cb, oref: l.oracleRef(), xref: join})
	l.refs++
	l.mu.Unlock()
	l.wakeup()
}

// QueueMicrotask schedules cb on the loop's microtask queue — the
// queueMicrotask API. The runtime models one unified microtask queue:
// process.nextTick and queueMicrotask entries share it in registration
// order, so this is a thin veneer over the tick queue that differs only in
// its schedule label. The guarantees are the microtask contract: cb runs
// after the current callback returns and before the next macrotask (timer,
// immediate, I/O event), nested microtasks drain in the same cycle, and the
// enqueue registers the scheduling unit as a happens-before predecessor
// with the oracle exactly as NextTick does.
func (l *Loop) QueueMicrotask(cb func()) { l.QueueMicrotaskNamed("", cb) }

// QueueMicrotaskNamed is QueueMicrotask with a schedule label.
func (l *Loop) QueueMicrotaskNamed(label string, cb func()) {
	if label == "" {
		label = "microtask"
	}
	l.NextTickNamed(label, cb)
}

func (l *Loop) runImmediates() {
	if l.isStopped() {
		return
	}
	// Immediates scheduled by immediate callbacks run on the next iteration,
	// matching Node: snapshot the queue first.
	l.mu.Lock()
	batch := l.immediates
	l.immediates = nil
	l.mu.Unlock()
	for _, im := range batch {
		l.executeUnit(KindImmediate, im.label, im.oref, nil, im.fn)
		l.unref()
	}
}

// --- close phase ---------------------------------------------------------

func (l *Loop) queueClose(label string, cb func()) {
	l.mu.Lock()
	var cr *closeReq
	if n := len(l.crFree); n > 0 {
		cr = l.crFree[n-1]
		l.crFree[n-1] = nil
		l.crFree = l.crFree[:n-1]
	} else {
		cr = &closeReq{}
	}
	cr.label, cr.fn, cr.oref = label, cb, l.oracleRef()
	l.closing = append(l.closing, cr)
	l.refs++
	l.mu.Unlock()
	l.wakeup()
}

func (l *Loop) runClosing() {
	if l.isStopped() {
		return
	}
	l.mu.Lock()
	batch := l.closing
	l.closing = nil
	l.mu.Unlock()
	var kept []*closeReq
	for i, cr := range batch {
		if l.sched.DeferClose(cr.label) {
			kept = append(kept, batch[i])
			atomic.AddInt64(&l.stats.ClosesDeferred, 1)
			continue
		}
		l.executeUnit(KindClose, cr.label, cr.oref, nil, cr.fn)
		l.unref()
		cr.label, cr.fn, cr.oref = "", nil, oracle.Ref{}
		l.mu.Lock()
		l.crFree = append(l.crFree, cr)
		l.mu.Unlock()
	}
	if len(kept) > 0 {
		l.mu.Lock()
		l.closing = append(kept, l.closing...)
		l.mu.Unlock()
	}
}

// --- worker pool ---------------------------------------------------------

// QueueWork offloads fn to the worker pool; done runs later on the loop
// with fn's results, like uv_queue_work. The loop stays alive until done
// has run. Safe from any goroutine.
func (l *Loop) QueueWork(name string, fn func() (any, error), done func(any, error)) {
	l.QueueWorkLatency(name, 0, fn, done)
}

// QueueWorkLatency is QueueWork with a simulated service time: the worker is
// occupied for latency before (wall) or around (virtual) running fn. It is
// how substrates model disk or resolver delay so that, under a virtual
// clock, the delay advances simulated time instead of sleeping.
func (l *Loop) QueueWorkLatency(name string, latency time.Duration, fn func() (any, error), done func(any, error)) {
	l.ref()
	l.pool.Submit(&pool.Task{
		Name:    name,
		Latency: latency,
		Fn:      fn,
		ORef:    l.oracleRef(),
		Done: func(res any, err error) {
			defer l.unref()
			if done != nil {
				done(res, err)
			}
		},
	})
}

// --- loop-local storage ---------------------------------------------------

// Local returns the value stored under key, or nil. Safe from any goroutine.
func (l *Loop) Local(key string) any {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.locals[key]
}

// LocalOrSet returns the value under key, installing mk()'s result first if
// the key is empty. The check-and-install is atomic, so concurrent callers
// observe one shared value.
func (l *Loop) LocalOrSet(key string, mk func() any) any {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.locals == nil {
		l.locals = make(map[string]any)
	}
	if v, ok := l.locals[key]; ok {
		return v
	}
	v := mk()
	l.locals[key] = v
	return v
}
