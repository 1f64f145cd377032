package vclock

import (
	"sync"
	"time"
)

// Wakeup is a participant's one-slot wakeup: other participants post a
// token (Notify), the owner consumes it (Wait, Drain). A token may carry a
// run grant, issued just before it is posted and revoked when it coalesces
// into a pending token or is drained, so the grant queue always matches the
// tokens in flight. Interchangeable participants (a pool's workers) may
// share one Wakeup. Call Init before use; embed by value, never copy.
type Wakeup struct {
	clk  Clock
	role int
	pri  int // tie-break priority of Wait's deadline timers
	// entered marks an owner that joined the clock with Enter; the next
	// Spawn hands that registration to its goroutine.
	entered bool
	ch      chan bool // the token; true when it carries a grant
}

// Init binds w to clk under a fresh role; pri orders Wait's deadline timers
// among timers sharing a deadline (see Clock.NewTimerPri).
func (w *Wakeup) Init(clk Clock, pri int) {
	w.clk, w.pri, w.role = clk, pri, clk.allocRole()
	w.ch = make(chan bool, 1)
}

// Enter makes the calling goroutine w's participant, taking the run token
// if the clock is idle: the event loop enters at construction, so its
// caller's setup runs before any participant the loop spawns.
func (w *Wakeup) Enter() {
	w.entered = true
	w.clk.register()
}

// Spawn starts body on a new goroutine as a participant woken through w.
// The caller holds the run token; the new participant's grant is issued
// before the goroutine exists, fixing its place in the run order. When
// body returns the participant leaves the clock, and only then is wg (if
// non-nil; Spawn counts it up) done, so Join on wg leaves nothing of it on
// the clock. After Enter, the goroutine takes over the owner's registration.
func (w *Wakeup) Spawn(wg *sync.WaitGroup, body func()) {
	if wg != nil {
		wg.Add(1)
	}
	entered := w.entered
	w.entered = false
	w.clk.wake(w.role)
	go w.participate(wg, body, entered)
}

func (w *Wakeup) participate(wg *sync.WaitGroup, body func(), entered bool) {
	if wg != nil {
		defer wg.Done()
	}
	if !entered {
		w.clk.register()
	}
	defer w.clk.unregister()
	w.clk.start(w.role)
	body()
}

// Notify posts a token. With grant set — allowed only to the run-token
// holder — it first issues w's participant a run grant, which vetoes clock
// advances until the participant resumes and orders it among other pending
// wakeups.
func (w *Wakeup) Notify(grant bool) {
	if grant {
		w.clk.wake(w.role)
	}
	select {
	case w.ch <- grant:
	default:
		if grant {
			w.clk.unwake(w.role)
		}
	}
}

// Drain consumes a pending token without waiting, revoking its grant, and
// reports whether there was one.
func (w *Wakeup) Drain() bool {
	select {
	case granted := <-w.ch:
		if granted {
			w.clk.unwake(w.role)
		}
		return true
	default:
		return false
	}
}

// Wait releases the run token and parks until a token arrives, timeout
// elapses (timeout < 0: no deadline) or done closes (nil: never). It
// returns holding the token again: through the token's grant, the deadline
// timer's fire, or — ungranted token or closed done — a free token. An
// ungranted token does not hold the clock, so drain one first: otherwise
// the deadline may fire at the same moment and the Go scheduler picks.
func (w *Wakeup) Wait(timeout time.Duration, done <-chan struct{}) {
	if timeout < 0 {
		w.clk.block()
		select {
		case granted := <-w.ch:
			w.resume(granted)
		case <-done:
			w.clk.unblockKeep()
		}
		return
	}
	t := w.clk.NewTimerPri(timeout, w.pri)
	w.clk.block()
	// Release the timer before retaking the token, so an abandoned deadline
	// leaves the heap before the next advance; never defer it, because the
	// next NewTimer may recycle it.
	select {
	case granted := <-w.ch:
		t.Release()
		w.resume(granted)
	case <-t.C:
		t.Release()
		w.clk.unblock()
	case <-done:
		t.Release()
		w.clk.unblockKeep()
	}
}

func (w *Wakeup) resume(granted bool) {
	if granted {
		w.clk.awaitTurn(w.role)
	} else {
		w.clk.unblockKeep()
	}
}

// Cond is a condition variable whose Signal carries a run grant, for
// participants waiting on mutex-guarded state (the pool's idle workers).
// It counts waiters and unconsumed signals, so repeated signals never grant
// more turns than there are waiters. Call Init before use; embed by value.
type Cond struct {
	w       *Wakeup
	c       sync.Cond
	waiters int // participants parked in Wait
	pending int // signals not yet consumed, one grant each
}

// Init binds c to the locker l and to w's clock and role.
func (c *Cond) Init(w *Wakeup, l sync.Locker) {
	c.w, c.c.L = w, l
}

// Signal wakes one waiter with a run grant, unless every waiter already has
// one pending. The caller holds the locker and the run token.
func (c *Cond) Signal() {
	if c.waiters > c.pending {
		c.w.clk.wake(c.w.role)
		c.pending++
		c.c.Signal()
	}
}

// Broadcast wakes every waiter without a grant: the shutdown wakeup.
func (c *Cond) Broadcast() { c.c.Broadcast() }

// Wait releases the run token and the locker, parks until Signal or
// Broadcast, and returns holding both again. A waiter that finds a signal
// pending claims its grant without the locker, which the running
// participant may need.
func (c *Cond) Wait() {
	c.waiters++
	c.w.clk.block()
	c.c.Wait()
	c.waiters--
	if c.pending > 0 {
		c.pending--
		c.c.L.Unlock()
		c.w.clk.awaitTurn(c.w.role)
		c.c.L.Lock()
	} else {
		c.w.clk.unblockKeep()
	}
}

// Reset forgets unconsumed signals, once every waiter has exited.
func (c *Cond) Reset() { c.pending = 0 }

// Join waits for wg while counting as blocked on clk, so the clock can run
// the participants wg tracks to completion, and retakes the run token if it
// is free. The caller is a participant: a loop closing its pool or network,
// or the goroutine that ran a cluster's control loop.
func Join(clk Clock, wg *sync.WaitGroup) {
	clk.block()
	wg.Wait()
	clk.unblockKeep()
}
