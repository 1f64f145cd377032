package eventloop

import (
	"time"

	"nodefz/internal/oracle"
)

// Timer is a handle for a callback scheduled to run at least d after its
// registration, like Node's setTimeout/setInterval (§4.2.1). Node.js
// provides no upper bound on how late a timer may fire, which is the
// legality argument for fuzzing them (§4.4).
type Timer struct {
	loop    *Loop
	cb      func()
	at      int64         // deadline, on the loop clock's Nanos time line
	period  time.Duration // 0 for one-shot
	seq     uint64        // registration order, for {timeout, registration} tie-break
	index   int           // heap index, -1 when not queued
	stopped bool
	refed   bool
	label   string
	oref    oracle.Ref // registering unit; for intervals, the previous firing
}

// Stop cancels the timer. Stopping an already-stopped or already-fired
// one-shot timer is a no-op. Must be called from the loop goroutine.
func (t *Timer) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	if t.index >= 0 {
		t.loop.timers.remove(t.index)
	}
	if t.refed {
		t.refed = false
		t.loop.unref()
	}
}

// Unref marks the timer as not keeping the loop alive: the loop may exit
// even while this timer is pending. Must be called from the loop goroutine.
func (t *Timer) Unref() {
	if t.refed && !t.stopped {
		t.refed = false
		t.loop.unref()
	}
}

// timerHeap orders timers by (at, seq): the undocumented-but-relied-on
// {timeout, registration} callback ordering that libuv implements and
// Node.fz preserves via short-circuiting (§4.3.4). It is a binary min-heap
// typed to *Timer; every move keeps the timer's index at its slot. seq is
// unique per loop, so the order is total and any heap yields it.
type timerHeap []*Timer

func (t *Timer) before(u *Timer) bool {
	return t.at < u.at || t.at == u.at && t.seq < u.seq
}

func (h *timerHeap) push(t *Timer) {
	*h = append(*h, t)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest timer; h must not be empty.
func (h *timerHeap) pop() *Timer {
	t := (*h)[0]
	h.remove(0)
	return t
}

// remove withdraws the timer at slot i: the last timer takes its slot and
// sifts to its place.
func (h *timerHeap) remove(i int) {
	old := *h
	old[i].index = -1
	n := len(old) - 1
	old[i] = old[n]
	old[n] = nil
	*h = old[:n]
	if i < n && !h.down(i) {
		h.up(i)
	}
}

func (h timerHeap) up(i int) {
	t := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !t.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].index = i
		i = parent
	}
	h[i] = t
	t.index = i
}

// down moves the timer at slot i down to its place and reports whether it
// moved.
func (h timerHeap) down(i int) bool {
	n := len(h)
	t := h[i]
	start := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(t) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = t
	t.index = i
	return i > start
}
