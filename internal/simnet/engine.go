package simnet

import (
	"container/heap"
	"sync"
	"time"

	"nodefz/internal/vclock"
)

// delivery is one scheduled network action: at due, fire fn (which posts a
// poll event on some loop).
type delivery struct {
	due time.Time
	seq uint64
	fn  func()
}

type deliveryHeap []*delivery

func (h deliveryHeap) Len() int { return len(h) }
func (h deliveryHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h deliveryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *deliveryHeap) Push(x any)   { *h = append(*h, x.(*delivery)) }
func (h *deliveryHeap) Pop() any {
	old := *h
	n := len(old)
	d := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return d
}

// engine is the network's single delivery goroutine: a time-ordered heap of
// pending deliveries, fired when due. It is the wire — latency happens
// here, and loops observe only the resulting poll events.
type engine struct {
	clk vclock.Clock
	// wake nudges the engine when a delivery is scheduled; the engine is
	// spawned through it. Every nudge carries a run grant.
	wake   vclock.Wakeup
	mu     sync.Mutex
	heap   deliveryHeap
	seq    uint64
	done   chan struct{}
	closed bool
	wg     sync.WaitGroup
	body   func() // e.run, bound once for every spawn
	// free recycles fired deliveries; a steady-state trial schedules
	// without allocating. Guarded by mu.
	free []*delivery
}

func newEngine(clk vclock.Clock) *engine {
	if clk == nil {
		clk = vclock.Wall{}
	}
	e := &engine{
		clk:  clk,
		done: make(chan struct{}),
	}
	e.wake.Init(clk, 2)
	e.body = e.run
	// The spawn grant fixes the engine's place in the virtual run order.
	e.wake.Spawn(&e.wg, e.body)
	return e
}

// schedule queues fn to fire after delay, but never before notBefore
// (which enforces per-connection FIFO). It returns the actual due time so
// callers can thread it as the next notBefore.
func (e *engine) schedule(delay time.Duration, notBefore time.Time, fn func()) time.Time {
	due := e.clk.Now().Add(delay)
	if due.Before(notBefore) {
		due = notBefore
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return due
	}
	e.seq++
	var d *delivery
	if n := len(e.free); n > 0 {
		d = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		d = &delivery{}
	}
	d.due, d.seq, d.fn = due, e.seq, fn
	heap.Push(&e.heap, d)
	e.mu.Unlock()
	e.wake.Notify(true)
	return due
}

// close stops the engine and joins its goroutine; pending deliveries are
// dropped. Joining (rather than the historical fire-and-forget) is what
// makes the engine safely restartable: once close returns, no engine
// goroutine can still be parked on the clock, so a trial arena may reset
// the clock and respawn the engine without a zombie claiming a later
// trial's run grant. The shutdown wait counts as blocked on the clock for
// the same reason the pool's does.
func (e *engine) close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	close(e.done)
	vclock.Join(e.clk, &e.wg)
	// A wake that raced the teardown leaves its token — and its unclaimed
	// run grant — behind; revoke it so the grant cannot wedge the clock or
	// leak into the engine's next incarnation.
	e.wake.Drain()
}

// restart re-arms a closed engine: the delivery heap empties in place and a
// fresh goroutine spawns under the same clock role, exactly as newEngine
// did. The caller must have close()d the engine first.
func (e *engine) restart() {
	e.mu.Lock()
	clear(e.heap)
	e.heap = e.heap[:0]
	e.seq = 0
	e.closed = false
	e.done = make(chan struct{})
	e.mu.Unlock()
	e.wake.Spawn(&e.wg, e.body)
}

func (e *engine) run() {
	var recycle *delivery
	for {
		e.mu.Lock()
		if recycle != nil {
			recycle.fn = nil
			e.free = append(e.free, recycle)
			recycle = nil
		}
		if e.closed {
			e.mu.Unlock()
			return
		}
		var wait time.Duration = -1
		var ready *delivery
		if len(e.heap) > 0 {
			now := e.clk.Now()
			next := e.heap[0]
			if !next.due.After(now) {
				ready = heap.Pop(&e.heap).(*delivery)
			} else {
				wait = next.due.Sub(now)
			}
		}
		e.mu.Unlock()

		if ready != nil {
			ready.fn()
			recycle = ready
			continue
		}
		// Sleep until the next delivery is due (wait < 0: nothing queued), a
		// schedule nudges us, or close tears the engine down; the loop top
		// then sees closed.
		e.wake.Wait(wait, e.done)
	}
}
