// Package vclock provides a pluggable clock for the event-loop runtime: a
// Wall clock that delegates to the time package (the default), and a Virtual
// clock that simulates time discretely, FoundationDB-style. Under the
// virtual clock a trial that "waits" 500ms of timer and injected-delay time
// completes in microseconds of CPU: whenever every registered participant is
// blocked waiting on the clock, the clock jumps straight to the earliest
// pending deadline and fires it.
//
// # Participant protocol
//
// The virtual clock is a cooperative discrete-event simulation. Every
// goroutine that can make progress independently (the event loop, each pool
// worker, the simnet delivery engine) is a participant, and AT MOST ONE
// participant executes at a time: the clock owns a single run token, and a
// participant runs only while it holds it. Letting two participants run
// concurrently — even briefly, even serialized by a mutex — makes lock
// acquisition order, wake interleaving, and advance counts depend on the Go
// scheduler, and trials stop being a pure function of the seed.
//
// Handing the token from one participant to another goes through a FIFO of
// run grants, each addressed to a role (a participant, or a group of
// interchangeable ones like a pool's workers). Whoever wakes another
// participant issues the grant immediately before the wakeup, which both
// vetoes clock advances while the wakeup is in flight and fixes the wakee's
// place in the run order; the wakee claims the grant before it runs. Because
// only the running participant (or a timer fire, of which there is one per
// advance) ever issues grants, the grant order — and therefore the entire
// execution order — is deterministic.
//
// The protocol itself is private to this package. Callers use four
// primitives that pair every grant with its wakeup:
//
//   - Wakeup.Spawn starts a participant with its run grant;
//   - Wakeup is a one-slot wakeup a participant waits on, with an optional
//     deadline and done channel;
//   - Cond is a condition variable whose signals carry run grants;
//   - Join waits for spawned participants to exit while counting as
//     blocked, so the clock stays free to run them to completion.
//
// # Advancing
//
// When every participant is blocked, no grant is pending, and nobody holds
// the token, nothing can make progress except the clock: it jumps to the
// earliest pending deadline and fires exactly that one timer (ties broken by
// pri, then creation order). The fire counts as an in-flight wake, so a
// second advance cannot happen until the woken participant retakes the
// token.
package vclock

import (
	"container/heap"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// debugProtocol enables expensive invariant checks: operations that only the
// run-token holder may perform (wake, NewTimer, Charge, block) print a stack
// trace when called while the token is free. Diagnostic aid, off by default.
var debugProtocol = os.Getenv("NODEFZ_VCLOCK_DEBUG") != ""

// assertRunning reports a protocol violation (caller holds v.mu).
func (v *Virtual) assertRunning(op string) {
	if !debugProtocol || v.running || v.participants == 0 {
		return
	}
	buf := make([]byte, 16384)
	n := runtime.Stack(buf, false)
	fmt.Fprintf(os.Stderr, "vclock: %s without run token (runq=%v fire=%d blocked=%d/%d)\n%s\n",
		op, v.runq[v.qhead:], v.fire, v.blocked, v.participants, buf[:n])
}

// Clock abstracts the runtime's use of time. Wall is the zero-cost
// pass-through; Virtual simulates.
type Clock interface {
	// Now returns the current (real or simulated) time.
	Now() time.Time
	// Since is Now().Sub(t).
	Since(t time.Time) time.Duration
	// Until is t.Sub(Now()).
	Until(t time.Time) time.Duration
	// Sleep pauses the calling participant for d. Under the virtual clock
	// this costs no wall time: the participant blocks and the clock
	// advances. The caller must not hold any lock another participant can
	// contend on (charge such delays with Charge instead).
	Sleep(d time.Duration)
	// Charge accounts d of busy CPU time to the calling participant: under
	// the virtual clock, simulated time advances by d immediately, without
	// blocking and without letting any other participant run. Deadlines
	// that d skips over fire late, exactly like timers starved by a busy
	// wall-clock loop. On Wall it is a plain sleep.
	Charge(d time.Duration)
	// NewTimer returns a timer that fires on C after d. Abandoned timers
	// MUST be stopped: a virtual timer left pending keeps its deadline in
	// the advance heap and the clock will sit on it.
	NewTimer(d time.Duration) *Timer
	// NewTimerPri is NewTimer with an explicit tie-break priority: among
	// virtual timers sharing a deadline, lower pri fires first, before
	// creation order breaks the remaining ties. NewTimer uses pri 0.
	NewTimerPri(d time.Duration, pri int) *Timer

	// The participant side of the run-token protocol, reached only through
	// Wakeup, Cond, Join and LockBlocking; no-ops on Wall. A role names a
	// participant, or a group of interchangeable ones, in the grant queue.
	allocRole() int
	register()    // join; the first participant on an idle clock takes the token
	unregister()  // leave, releasing the token
	block()       // start waiting: release the token; time may advance
	unblock()     // end a timer wait: retake the token, consuming the fire
	unblockKeep() // end an ungranted wait: take the token if free and nothing is in flight
	// wake queues a run grant for role just before the wakeup it pays for;
	// the grant vetoes advances until claimed. unwake revokes role's latest
	// unclaimed grant. start (a spawned participant) and awaitTurn (after
	// block) wait for role's grant to head the queue and take the token.
	wake(role int)
	unwake(role int)
	start(role int)
	awaitTurn(role int)
}

// Timer is the clock-agnostic analogue of time.Timer.
type Timer struct {
	// C delivers the fire time once.
	C <-chan time.Time

	wall *time.Timer // wall mode
	v    *Virtual    // virtual mode
	vt   *vtimer
}

// Stop cancels the timer. It reports whether the timer was still pending.
// Unlike time.Timer.Stop it also makes it safe to abandon the timer in
// virtual mode: the deadline leaves the advance heap.
func (t *Timer) Stop() bool {
	if t.wall != nil {
		return t.wall.Stop()
	}
	return t.v.stopTimer(t.vt)
}

// Release hands a finished timer's storage back to the clock for reuse.
// The timer must be dead — stopped, or fired and its C drained — and the
// caller must not touch t or t.C afterwards. Wall timers are garbage
// collected as usual, so Release is a no-op for them. Releasing is optional
// but the hot wait paths (poll timeouts, pool fill waits, delivery engine
// waits) create one timer per wait, and recycling them is what keeps a
// virtual trial's steady-state allocation flat.
func (t *Timer) Release() {
	if t.v != nil {
		t.v.releaseTimer(t.vt)
	}
}

// ---------------------------------------------------------------------------
// Wall

// Wall delegates to the time package. Participant methods are no-ops: real
// time advances on its own and goroutines run preemptively.
type Wall struct{}

func (Wall) Now() time.Time                  { return time.Now() }
func (Wall) Since(t time.Time) time.Duration { return time.Since(t) }
func (Wall) Until(t time.Time) time.Duration { return time.Until(t) }
func (Wall) Sleep(d time.Duration)           { time.Sleep(d) }
func (Wall) Charge(d time.Duration)          { time.Sleep(d) }
func (Wall) allocRole() int                  { return 0 }
func (Wall) register()                       {}
func (Wall) unregister()                     {}
func (Wall) block()                          {}
func (Wall) unblock()                        {}
func (Wall) unblockKeep()                    {}
func (Wall) wake(int)                        {}
func (Wall) unwake(int)                      {}
func (Wall) start(int)                       {}
func (Wall) awaitTurn(int)                   {}

func (Wall) NewTimer(d time.Duration) *Timer {
	wt := time.NewTimer(d)
	return &Timer{C: wt.C, wall: wt}
}

func (w Wall) NewTimerPri(d time.Duration, _ int) *Timer { return w.NewTimer(d) }

// ---------------------------------------------------------------------------
// Virtual

// epoch is the virtual clock's fixed origin. Any constant works; a real
// date keeps formatted timestamps legible in traces.
var epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// Virtual is a deterministic discrete-event clock. The zero value is not
// usable; call NewVirtual.
type Virtual struct {
	mu   sync.Mutex
	turn *sync.Cond // broadcast whenever the token or grant queue changes
	now  time.Time
	// nowNS mirrors now as nanoseconds-since-epoch so Now() can read the
	// clock without taking mu: participants stamp every recorder entry and
	// check deadlines on the hot path, and the mutex round-trip was showing
	// up in trial profiles.
	nowNS atomic.Int64

	participants int
	blocked      int
	// running is the run token: true while some participant executes. The
	// clock never advances, and no grant is claimable, while it is held.
	running bool
	// runq[qhead:] is the FIFO of issued-but-unclaimed run grants, by role.
	// A non-empty queue vetoes advances: a wake is in flight. Claims advance
	// qhead instead of re-slicing, so the backing array never drifts and
	// wake stops allocating once the queue has reached its high-water mark.
	runq  []int
	qhead int
	// fire counts a timer fire whose waiter has not yet retaken the token
	// via unblock. Like a grant, it vetoes advances.
	fire int

	timers vheap
	seq    uint64
	roles  int
	// free recycles dead vtimers (and their channels and Timer handles)
	// across waits; see Timer.Release.
	free []*vtimer
}

// NewVirtual returns a virtual clock at the epoch with no participants.
func NewVirtual() *Virtual {
	v := &Virtual{now: epoch}
	v.turn = sync.NewCond(&v.mu)
	return v
}

// Reset rewinds the clock to the epoch for the next trial of an arena: time,
// timer sequence numbers, grants, fires, and the pending-timer heap all
// return to their just-constructed values, with the calling goroutine as the
// single registered participant holding the run token (the state a fresh
// clock is in once the event loop built on it has entered).
//
// The caller must guarantee quiescence first: every other participant has
// unregistered and no other goroutine will touch the clock again. Role
// numbers are deliberately NOT reset — they only ever matter for equality
// in the grant queue, and keeping them monotonic means a participant
// spawned after the reset can never collide with a stale one.
func (v *Virtual) Reset() {
	v.mu.Lock()
	v.setNow(epoch)
	v.participants = 1
	v.blocked = 0
	v.running = true
	v.runq = v.runq[:0]
	v.qhead = 0
	v.fire = 0
	// Stray timers (a force-stopped trial can abandon waits) are dropped,
	// not recycled: their owners may still hold the handles.
	for i := range v.timers {
		v.timers[i].index = -1
		v.timers[i] = nil
	}
	v.timers = v.timers[:0]
	v.seq = 0
	v.mu.Unlock()
}

type vtimer struct {
	deadline time.Time
	pri      int
	seq      uint64
	ch       chan time.Time
	index    int   // heap index; -1 fired/stopped; freeIndex in freelist
	tim      Timer // the handle NewTimerPri returns, reused across recycles
}

// freeIndex marks a vtimer parked in the freelist, so a double Release (or
// a Stop after Release) is inert instead of corrupting the heap.
const freeIndex = -2

type vheap []*vtimer

func (h vheap) Len() int { return len(h) }
func (h vheap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	if h[i].pri != h[j].pri {
		return h[i].pri < h[j].pri
	}
	return h[i].seq < h[j].seq
}
func (h vheap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *vheap) Push(x any) {
	t := x.(*vtimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *vheap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}

func (v *Virtual) Now() time.Time {
	return epoch.Add(time.Duration(v.nowNS.Load()))
}

// setNow writes the clock (caller holds mu), keeping the lock-free mirror
// in step.
func (v *Virtual) setNow(t time.Time) {
	v.now = t
	v.nowNS.Store(int64(t.Sub(epoch)))
}

func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }
func (v *Virtual) Until(t time.Time) time.Duration { return t.Sub(v.Now()) }

// Sleep blocks the participant on a one-shot timer. A non-positive d still
// yields through the clock (deadline == now fires on the next advance),
// which keeps zero-delay sleeps ordered with everything else.
func (v *Virtual) Sleep(d time.Duration) {
	t := v.NewTimer(d)
	v.block()
	<-t.C
	v.unblock()
	t.Release()
}

// Charge advances simulated time by d on the spot. The caller keeps the run
// token throughout: busy CPU excludes everyone else by definition. Deadlines
// that the jump passes over become overdue and fire, in order, on the next
// ordinary advances.
func (v *Virtual) Charge(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	v.assertRunning("Charge")
	v.setNow(v.now.Add(d))
	v.mu.Unlock()
}

func (v *Virtual) NewTimer(d time.Duration) *Timer { return v.NewTimerPri(d, 0) }

func (v *Virtual) NewTimerPri(d time.Duration, pri int) *Timer {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	v.assertRunning("NewTimer")
	var vt *vtimer
	if n := len(v.free); n > 0 {
		vt = v.free[n-1]
		v.free[n-1] = nil
		v.free = v.free[:n-1]
	} else {
		vt = &vtimer{ch: make(chan time.Time, 1)}
		vt.tim = Timer{C: vt.ch, v: v, vt: vt}
	}
	vt.deadline = v.now.Add(d)
	vt.pri = pri
	vt.seq = v.seq
	v.seq++
	heap.Push(&v.timers, vt)
	v.mu.Unlock()
	return &vt.tim
}

func (v *Virtual) stopTimer(vt *vtimer) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if vt.index < 0 {
		return false
	}
	heap.Remove(&v.timers, vt.index)
	return true
}

// releaseTimer parks a dead vtimer in the freelist. A still-pending timer
// is stopped first; an unconsumed fire is drained (and its in-flight-wake
// veto lifted) so the recycled channel starts empty.
func (v *Virtual) releaseTimer(vt *vtimer) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if vt.index == freeIndex {
		return
	}
	if vt.index >= 0 {
		heap.Remove(&v.timers, vt.index)
	}
	select {
	case <-vt.ch:
		if v.fire > 0 {
			v.fire--
		}
	default:
	}
	vt.index = freeIndex
	v.free = append(v.free, vt)
}

func (v *Virtual) allocRole() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.roles++
	return v.roles
}

// register adds a participant. The first registrant on an idle clock — in
// practice the goroutine constructing the runtime, which goes on to become
// the event loop — takes the run token; later registrants (spawned workers,
// the delivery engine) enter through their spawn grants via start.
func (v *Virtual) register() {
	v.mu.Lock()
	v.participants++
	if !v.running && v.fire == 0 && v.qlen() == 0 {
		v.running = true
	}
	v.mu.Unlock()
}

// qlen is the number of unclaimed grants. Caller holds mu.
func (v *Virtual) qlen() int { return len(v.runq) - v.qhead }

// unregister removes a participant on its teardown path, relinquishing the
// run token. The remaining blocked participants may now satisfy the advance
// condition, so it re-checks.
func (v *Virtual) unregister() {
	v.mu.Lock()
	v.participants--
	v.running = false
	v.turn.Broadcast()
	v.maybeAdvance()
	v.mu.Unlock()
}

func (v *Virtual) block() {
	v.mu.Lock()
	v.assertRunning("block")
	v.blocked++
	v.running = false
	if v.qlen() > 0 {
		// The head grant's wakee can run now; tell any waiter to re-check.
		v.turn.Broadcast()
	} else {
		v.maybeAdvance()
	}
	v.mu.Unlock()
}

func (v *Virtual) unblock() {
	v.mu.Lock()
	v.blocked--
	if v.fire > 0 {
		v.fire--
	}
	v.running = true
	v.mu.Unlock()
}

func (v *Virtual) unblockKeep() {
	v.mu.Lock()
	v.blocked--
	if !v.running && v.fire == 0 && v.qlen() == 0 {
		v.running = true
	} else {
		v.maybeAdvance()
	}
	v.mu.Unlock()
}

func (v *Virtual) wake(role int) {
	v.mu.Lock()
	v.assertRunning("wake")
	v.runq = append(v.runq, role)
	v.mu.Unlock()
}

func (v *Virtual) unwake(role int) {
	v.mu.Lock()
	for i := len(v.runq) - 1; i >= v.qhead; i-- {
		if v.runq[i] == role {
			copy(v.runq[i:], v.runq[i+1:])
			v.runq = v.runq[:len(v.runq)-1]
			break
		}
	}
	if v.qlen() > 0 {
		v.turn.Broadcast() // the head may have changed
	} else {
		v.maybeAdvance()
	}
	v.mu.Unlock()
}

func (v *Virtual) start(role int) {
	v.mu.Lock()
	v.claimTurn(role)
	v.mu.Unlock()
}

func (v *Virtual) awaitTurn(role int) {
	v.mu.Lock()
	v.claimTurn(role)
	v.blocked--
	v.mu.Unlock()
}

// claimTurn waits until the head grant is for role and the token is free,
// then consumes both. Caller holds mu.
func (v *Virtual) claimTurn(role int) {
	for !(v.qlen() > 0 && v.runq[v.qhead] == role && !v.running && v.fire == 0) {
		v.turn.Wait()
	}
	v.qhead++
	if v.qhead == len(v.runq) {
		// Queue drained: rewind to the front of the backing array so wake
		// keeps reusing it instead of appending ever further right.
		v.runq = v.runq[:0]
		v.qhead = 0
	}
	v.running = true
}

// LockBlocking acquires l, counting a contended wait as blocked on clk.
// Under the full run-token protocol a contended lock cannot happen — the
// holder would have to be running, and then the caller could not be — but
// the fallback keeps degraded paths (teardown, tests driving the clock
// directly) live rather than wedged. The uncontended fast path never touches
// the participant accounting.
func LockBlocking(clk Clock, l sync.Locker) {
	if _, wall := clk.(Wall); wall {
		l.Lock()
		return
	}
	if m, ok := l.(*sync.Mutex); ok {
		if m.TryLock() {
			return
		}
		clk.block()
		m.Lock()
		clk.unblockKeep()
		return
	}
	l.Lock()
}

// maybeAdvance advances virtual time to the earliest pending deadline and
// fires exactly that one timer, iff every participant is blocked, the run
// token is free, and no wake — grant or previous fire — is in flight.
// Firing counts as an in-flight wake (fire++), so a second advance cannot
// happen until the woken participant retakes the token: equal-deadline
// timers fire serially in a fixed order. Caller holds mu.
func (v *Virtual) maybeAdvance() {
	if v.participants <= 0 || v.blocked < v.participants ||
		v.running || v.fire > 0 || v.qlen() > 0 {
		return
	}
	if len(v.timers) == 0 {
		return
	}
	vt := heap.Pop(&v.timers).(*vtimer)
	if vt.deadline.After(v.now) {
		v.setNow(vt.deadline)
	}
	v.fire++
	vt.ch <- v.now // cap 1, never filled twice: fires at most once
}
