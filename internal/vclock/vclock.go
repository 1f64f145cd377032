// Package vclock provides a pluggable clock for the event-loop runtime: a
// Wall clock that delegates to the time package (the default), and a Virtual
// clock that simulates time discretely, FoundationDB-style. Under the
// virtual clock a trial that "waits" 500ms of timer and injected-delay time
// completes in microseconds of CPU: whenever nothing is runnable, the clock
// jumps straight to the earliest pending deadline.
//
// # Participants as steps
//
// Every part of the runtime that makes progress on its own — the event
// loop, each pool worker, the simnet delivery engine — is a participant
// (Proc) written as a step function: a step runs until its participant must
// wait, then returns what it waits for (Park, After, Sleep, Await or Exit).
// Each step is written once and runs under either clock:
//
//   - Under Wall, every spawned participant gets a goroutine that calls its
//     step and blocks between calls as the returned wait says; Notify wakes
//     a parked one.
//   - Under Virtual there are no participant goroutines. The goroutine that
//     calls Proc.Run (the event loop's Run) or Join runs every step of the
//     trial itself, from a FIFO run queue. When the queue is empty it jumps
//     time to the earliest pending deadline (ties broken by priority, then
//     creation order) and runs that deadline's participant.
//
// Determinism under Virtual follows from there being one goroutine: a step
// runs to its end before the next begins, and the run order is fixed by the
// order in which spawns, granted notifies and a group's last exit append to
// the run queue, and by the deadline heap. The Go scheduler has no say.
package vclock

import "time"

// Clock abstracts the runtime's use of time. Wall is the zero-cost
// pass-through; Virtual simulates.
type Clock interface {
	// Now returns the current (real or simulated) time.
	Now() time.Time
	// Nanos reads the clock in nanoseconds on its own monotonic time line:
	// since the epoch under Virtual, since process start under Wall. The
	// runtime keys its deadlines (timers, deliveries, lookahead fills) on
	// it, so ordering them is integer comparison.
	Nanos() int64
	// Charge accounts d of busy CPU time to the running step: under the
	// virtual clock, simulated time advances by d immediately, without
	// letting any other step run. Deadlines that d skips over fire late,
	// exactly like timers starved by a busy wall-clock loop. On Wall it is
	// a plain sleep.
	Charge(d time.Duration)
}

// ---------------------------------------------------------------------------
// Wall

// Wall delegates to the time package: real time advances on its own, and
// every spawned participant runs on a goroutine of its own.
type Wall struct{}

// wallStart is the origin of Wall.Nanos. time.Since reads the monotonic
// clock, so wall deadlines keep monotonic order.
var wallStart = time.Now()

func (Wall) Now() time.Time         { return time.Now() }
func (Wall) Nanos() int64           { return int64(time.Since(wallStart)) }
func (Wall) Charge(d time.Duration) { time.Sleep(d) }

// ---------------------------------------------------------------------------
// Virtual

// epoch is the virtual clock's fixed origin. Any constant works; a real
// date keeps formatted timestamps legible in traces.
var epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// Virtual is a deterministic discrete-event clock and the dispatcher of the
// steps of the participants built on it. One goroutine at a time sets a
// trial up on it or drives it (see Proc.Run and Join), so it needs no
// locking. The zero value is not usable; call NewVirtual.
type Virtual struct {
	// now is the simulated time in nanoseconds since the epoch.
	now int64
	// runq[qhead:] is the FIFO of runnable participants. Popping advances
	// qhead instead of re-slicing, so the backing array is reused once the
	// queue has reached its high-water mark.
	runq  []*Proc
	qhead int
	// deadlines holds every pending deadline, at most one per participant.
	deadlines []deadline
	seq       uint64
	// driving is set while a goroutine runs steps: Run and Join must not be
	// called from inside a step.
	driving bool
}

// NewVirtual returns a virtual clock at the epoch with nothing to run.
func NewVirtual() *Virtual { return &Virtual{} }

// Reset rewinds the clock to the epoch for the next trial of an arena: time,
// the deadline sequence, the run queue and the pending deadlines all return
// to their just-constructed values. The caller must guarantee quiescence
// first: every participant has exited (or is abandoned for good).
func (v *Virtual) Reset() {
	v.now = 0
	clear(v.runq)
	v.runq = v.runq[:0]
	v.qhead = 0
	// Stray deadlines (a force-stopped trial can abandon waits) are dropped;
	// their owners see them as no longer pending.
	for _, e := range v.deadlines {
		e.p.hidx = -1
	}
	clear(v.deadlines)
	v.deadlines = v.deadlines[:0]
	v.seq = 0
}

func (v *Virtual) Now() time.Time { return epoch.Add(time.Duration(v.now)) }
func (v *Virtual) Nanos() int64   { return v.now }

// Charge advances simulated time by d on the spot. Deadlines that the jump
// passes over become overdue and run, in order, once the run queue is next
// empty.
func (v *Virtual) Charge(d time.Duration) {
	if d > 0 {
		v.now = AddNanos(v.now, d)
	}
}

// enter marks the clock driven by the calling goroutine.
func (v *Virtual) enter() {
	if v.driving {
		panic("vclock: Run or Join called from inside a step")
	}
	v.driving = true
}

func (v *Virtual) enqueue(p *Proc) { v.runq = append(v.runq, p) }

// revoke removes p's latest run-queue entry, if it has one.
func (v *Virtual) revoke(p *Proc) {
	for i := len(v.runq) - 1; i >= v.qhead; i-- {
		if v.runq[i] == p {
			n := copy(v.runq[i:], v.runq[i+1:])
			v.runq[i+n] = nil
			v.runq = v.runq[:i+n]
			v.rewind()
			return
		}
	}
}

// rewind moves an emptied run queue back to the front of its backing array.
func (v *Virtual) rewind() {
	if v.qhead == len(v.runq) {
		v.runq = v.runq[:0]
		v.qhead = 0
	}
}

// next removes and returns the participant whose step runs next: the head
// of the run queue or, when the queue is empty, the owner of the earliest
// deadline, with time jumping to that deadline (an overdue one runs at the
// current time).
func (v *Virtual) next() *Proc {
	if v.qhead < len(v.runq) {
		p := v.runq[v.qhead]
		v.runq[v.qhead] = nil
		v.qhead++
		v.rewind()
		return p
	}
	if len(v.deadlines) == 0 {
		panic("vclock: virtual deadlock: nothing runnable and no pending deadline")
	}
	e := v.popDeadline()
	if e.at > v.now {
		v.now = e.at
	}
	return e.p
}

// setDeadline files p's deadline d from now; pri breaks ties between equal
// deadlines before creation order does.
func (v *Virtual) setDeadline(p *Proc, d time.Duration, pri int) {
	if d < 0 {
		d = 0
	}
	e := deadline{at: AddNanos(v.now, d), tie: uint64(pri)<<tieSeqBits | v.seq, p: p}
	v.seq++
	v.pushDeadline(e)
}

// clearDeadline withdraws p's pending deadline, if any.
func (v *Virtual) clearDeadline(p *Proc) {
	if p.hidx >= 0 {
		v.removeDeadline(p.hidx)
	}
}

// AddNanos is the Nanos reading d after t, saturating instead of wrapping
// past the end of time.
func AddNanos(t int64, d time.Duration) int64 {
	if s := t + int64(d); s >= t {
		return s
	}
	return 1<<63 - 1
}

// deadline is one pending entry of the deadline heap: participant p runs at
// at, ties broken by tie, which holds the deadline's priority in its top
// byte and its creation order below. Ordering on (at, tie) is ordering on
// (deadline, priority, creation), and every tie is distinct.
type deadline struct {
	at  int64
	tie uint64
	p   *Proc
}

// tieSeqBits is the width of a tie's creation-order field.
const tieSeqBits = 56

func (d *deadline) before(e *deadline) bool {
	return d.at < e.at || d.at == e.at && d.tie < e.tie
}

// The deadline heap is a binary min-heap on (at, tie), typed to its
// entries; each move keeps its participant's hidx at the entry's slot.

func (v *Virtual) pushDeadline(e deadline) {
	h := append(v.deadlines, e)
	v.deadlines = h
	v.siftUp(len(h) - 1)
}

// popDeadline removes and returns the earliest deadline. The heap must not
// be empty.
func (v *Virtual) popDeadline() deadline {
	top := v.deadlines[0]
	v.removeDeadline(0)
	return top
}

// removeDeadline withdraws the entry at slot i: the last entry takes its
// slot and sifts to its place.
func (v *Virtual) removeDeadline(i int) {
	h := v.deadlines
	h[i].p.hidx = -1
	n := len(h) - 1
	h[i] = h[n]
	h[n] = deadline{}
	v.deadlines = h[:n]
	if i < n && !v.siftDown(i) {
		v.siftUp(i)
	}
}

func (v *Virtual) siftUp(i int) {
	h := v.deadlines
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].p.hidx = i
		i = parent
	}
	h[i] = e
	e.p.hidx = i
}

// siftDown moves the entry at slot i down to its place and reports whether
// it moved.
func (v *Virtual) siftDown(i int) bool {
	h := v.deadlines
	n := len(h)
	e := h[i]
	start := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&e) {
			break
		}
		h[i] = h[c]
		h[i].p.hidx = i
		i = c
	}
	h[i] = e
	e.p.hidx = i
	return i > start
}
