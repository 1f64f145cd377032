package eventloop

import (
	"container/heap"
	"time"

	"nodefz/internal/oracle"
)

// Timer is a handle for a callback scheduled to run at least d after its
// registration, like Node's setTimeout/setInterval (§4.2.1). Node.js
// provides no upper bound on how late a timer may fire, which is the
// legality argument for fuzzing them (§4.4).
type Timer struct {
	loop     *Loop
	cb       func()
	deadline time.Time
	period   time.Duration // 0 for one-shot
	seq      uint64        // registration order, for {timeout, registration} tie-break
	index    int           // heap index, -1 when not queued
	stopped  bool
	refed    bool
	label    string
	oref     oracle.Ref // registering unit; for intervals, the previous firing
}

// Stop cancels the timer. Stopping an already-stopped or already-fired
// one-shot timer is a no-op. Must be called from the loop goroutine.
func (t *Timer) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	if t.index >= 0 {
		heap.Remove(&t.loop.timers, t.index)
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

// Stopped reports whether the timer has been stopped (or, for a one-shot
// timer, has fired).
func (t *Timer) Stopped() bool { return t.stopped }

// timerHeap orders timers by (deadline, seq): the undocumented-but-relied-on
// {timeout, registration time} callback ordering that libuv implements and
// Node.fz preserves via short-circuiting (§4.3.4).
type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *timerHeap) Push(x any) {
	t := x.(*Timer)
	t.index = len(*h)
	*h = append(*h, t)
}

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}
