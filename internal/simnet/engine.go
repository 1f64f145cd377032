package simnet

import (
	"time"

	"nodefz/internal/oracle"
	"nodefz/internal/vclock"
)

// wireOp is what a delivery does when it arrives.
type wireOp uint8

const (
	opData wireOp = iota // payload for the receiving endpoint's OnData
	opFIN                // the sending endpoint closed
	opCall               // connection setup: call fn
)

// flight is what travels on the wire: a message or a FIN from one endpoint
// to its peer, or a step of connection setup. A message carries its own
// payload, so sending one allocates no closure.
type flight struct {
	op       wireOp
	from, to *Conn // nil for a dial's SYN, which has no connection yet
	payload  []byte
	ref      oracle.Ref // the sending unit: the delivery happens-after it
	fn       func(oracle.Ref)
}

// delivery is one scheduled flight: at its due time at (on the clock's
// Nanos time line), it arrives (and posts a poll event on some loop).
type delivery struct {
	at  int64
	seq uint64
	flight
}

// deliveryHeap is a binary min-heap of deliveries on (at, seq), typed to
// its entries. seq is unique per trial, so the order is total.
type deliveryHeap []*delivery

func (d *delivery) before(e *delivery) bool {
	return d.at < e.at || d.at == e.at && d.seq < e.seq
}

func (h *deliveryHeap) push(d *delivery) {
	*h = append(*h, d)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !d.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = d
}

// pop removes and returns the earliest delivery; h must not be empty.
func (h *deliveryHeap) pop() *delivery {
	q := *h
	top := q[0]
	n := len(q) - 1
	d := q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(d) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = d
	return top
}

// engine is the network's delivery participant: a time-ordered heap of
// pending deliveries, fired when due. It is the wire — latency happens
// here, and loops observe only the resulting poll events.
type engine struct {
	clk vclock.Clock
	// proc runs step; every notify (a delivery was scheduled, or the
	// network is closing) carries a run grant.
	proc   vclock.Proc
	group  vclock.Group
	mu     vclock.Mutex // bound to clk
	heap   deliveryHeap
	seq    uint64
	closed bool
	// free recycles fired deliveries; a steady-state trial schedules
	// without allocating. Guarded by mu.
	free []*delivery
}

func newEngine(clk vclock.Clock) *engine {
	if clk == nil {
		clk = vclock.Wall{}
	}
	e := &engine{clk: clk}
	e.mu.Bind(clk)
	e.proc.Init(clk, 2, e.step)
	// The spawn fixes the engine's place in the virtual run order.
	e.proc.Spawn(&e.group)
	return e
}

// schedule queues f to arrive after delay, but never before notBefore
// (which enforces per-connection FIFO). Both due times are readings of the
// clock's Nanos. It returns the actual due time so callers can thread it as
// the next notBefore.
func (e *engine) schedule(delay time.Duration, notBefore int64, f flight) int64 {
	due := vclock.AddNanos(e.clk.Nanos(), delay)
	if due < notBefore {
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
	d.at, d.seq, d.flight = due, e.seq, f
	e.heap.push(d)
	e.mu.Unlock()
	e.proc.Notify(true)
	return due
}

// close stops the engine and joins it; pending deliveries are dropped. It
// notifies the engine, whose next step sees closed and exits. Joining is
// what makes the engine safely restartable: once close returns the engine
// has exited, so a trial arena may reset the clock and respawn it. Call it
// from outside any step.
func (e *engine) close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	e.proc.Notify(true)
	vclock.Join(e.clk, &e.group)
	// A wall-time wake that raced the teardown leaves its token behind.
	e.proc.Drain()
}

// restart re-arms a closed engine: the delivery heap empties in place and
// the engine respawns, exactly as newEngine spawned it. The caller must have
// close()d the engine first.
func (e *engine) restart() {
	e.mu.Lock()
	clear(e.heap)
	e.heap = e.heap[:0]
	e.seq = 0
	e.closed = false
	e.mu.Unlock()
	e.proc.Spawn(&e.group)
}

// step fires every due delivery, then waits until the next one is due or a
// notify arrives.
func (e *engine) step() vclock.Wait {
	var fired *delivery
	for {
		e.mu.Lock()
		if fired != nil {
			fired.flight = flight{}
			e.free = append(e.free, fired)
		}
		if e.closed {
			e.mu.Unlock()
			return vclock.Exit()
		}
		if len(e.heap) == 0 {
			e.mu.Unlock()
			return vclock.Park()
		}
		next := e.heap[0]
		if wait := next.at - e.clk.Nanos(); wait > 0 {
			e.mu.Unlock()
			return vclock.After(time.Duration(wait))
		}
		e.heap.pop()
		e.mu.Unlock()
		next.arrive()
		fired = next
	}
}
