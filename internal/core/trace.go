package core

import (
	"encoding/json"
	"io"
	"time"

	"nodefz/internal/eventloop"
	"nodefz/internal/vclock"
)

// Trace is a recording of every decision a scheduler made during a run,
// one FIFO stream per hook. Traces serve the record-and-replay direction
// §6 discusses: once a fuzzed run manifests a bug, its decision trace can
// drive a ReplayScheduler to steer a new run toward the same schedule.
//
// Replay is best-effort, not bit-exact: hooks are invoked in response to
// real timing, so a replayed run may consume the streams at slightly
// different points. Each stream entry carries the hook's input size; on
// mismatch (or stream exhaustion) the replayer falls back to its base
// scheduler. In practice this biases the run strongly toward the recorded
// schedule — which is the useful property for debugging.
type Trace struct {
	Timers  []TimerDecision   `json:"timers"`
	Shuffle []ShuffleDecision `json:"shuffle"`
	Close   []bool            `json:"close"`
	Pick    []PickDecision    `json:"pick"`
}

// TimerDecision records one FilterTimers call.
type TimerDecision struct {
	Due   int           `json:"due"`
	Run   int           `json:"run"`
	Delay time.Duration `json:"delay"`
}

// ShuffleDecision records one ShuffleReady call: the run order (indices
// into the ready list) and which indices were deferred.
type ShuffleDecision struct {
	N        int   `json:"n"`
	RunOrder []int `json:"run"`
	Deferred []int `json:"deferred"`
}

// PickDecision records one PickTask call.
type PickDecision struct {
	N int `json:"n"`
	I int `json:"i"`
}

// Perturbs reports whether the decision changed the schedule relative to
// vanilla ordering (some timers deferred, or a delay injected).
func (d TimerDecision) Perturbs() bool { return d.Run < d.Due || d.Delay > 0 }

// Neutral returns the unperturbed form of the decision: run every due timer
// immediately.
func (d TimerDecision) Neutral() TimerDecision { return TimerDecision{Due: d.Due, Run: d.Due} }

// Identity reports whether the shuffle kept arrival order and deferred
// nothing — the vanilla behaviour.
func (d ShuffleDecision) Identity() bool {
	if len(d.Deferred) != 0 || len(d.RunOrder) != d.N {
		return false
	}
	for i, v := range d.RunOrder {
		if v != i {
			return false
		}
	}
	return true
}

// Neutral returns the unperturbed form of the decision: run all ready events
// in arrival order.
func (d ShuffleDecision) Neutral() ShuffleDecision {
	order := make([]int, d.N)
	for i := range order {
		order[i] = i
	}
	return ShuffleDecision{N: d.N, RunOrder: order}
}

// Perturbs reports whether the pick skipped the queue head.
func (d PickDecision) Perturbs() bool { return d.I != 0 }

// Neutral returns the unperturbed form of the decision: pick the head.
func (d PickDecision) Neutral() PickDecision { return PickDecision{N: d.N} }

// Clone deep-copies the trace; mutating the copy leaves the original intact.
// The campaign trace minimizer clones a recorded trace once per delta-
// debugging probe before neutralizing a subset of its perturbations.
func (t *Trace) Clone() *Trace {
	cp := &Trace{
		Timers:  append([]TimerDecision(nil), t.Timers...),
		Shuffle: make([]ShuffleDecision, len(t.Shuffle)),
		Close:   append([]bool(nil), t.Close...),
		Pick:    append([]PickDecision(nil), t.Pick...),
	}
	for i, d := range t.Shuffle {
		cp.Shuffle[i] = ShuffleDecision{
			N:        d.N,
			RunOrder: append([]int(nil), d.RunOrder...),
			Deferred: append([]int(nil), d.Deferred...),
		}
	}
	return cp
}

// Perturbations counts the decisions in the trace that changed the schedule
// relative to vanilla ordering.
func (t *Trace) Perturbations() int {
	n := 0
	for _, d := range t.Timers {
		if d.Perturbs() {
			n++
		}
	}
	for _, d := range t.Shuffle {
		if !d.Identity() {
			n++
		}
	}
	for _, v := range t.Close {
		if v {
			n++
		}
	}
	for _, d := range t.Pick {
		if d.Perturbs() {
			n++
		}
	}
	return n
}

// Encode writes the trace as JSON.
func (t *Trace) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t)
}

// DecodeTrace reads a JSON trace.
func DecodeTrace(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, err
	}
	return &t, nil
}

// RecordingScheduler wraps another scheduler and records every decision it
// makes. The recording grows into reusable buffers — the per-decision
// RunOrder/Deferred index lists are carved out of one shared flat int
// buffer — so a steady-state trial records without allocating; Trace()
// deep-copies on the way out (copy-on-admit: only runs somebody keeps pay
// for the copy), and Reset rewinds the buffers for the next trial.
type RecordingScheduler struct {
	inner eventloop.Scheduler

	mu     vclock.Mutex // bound to the loops' clock (BindClock)
	trace  Trace
	intBuf []int // backing store for ShuffleDecision RunOrder/Deferred views
}

var _ eventloop.Scheduler = (*RecordingScheduler)(nil)

// NewRecording wraps inner.
func NewRecording(inner eventloop.Scheduler) *RecordingScheduler {
	return &RecordingScheduler{inner: inner}
}

// BindClock binds the recorder's lock, and the wrapped scheduler's, to clk
// (see Scheduler.BindClock).
func (r *RecordingScheduler) BindClock(clk vclock.Clock) {
	r.mu.Bind(clk)
	bindClock(r.inner, clk)
}

// bindClock binds s to clk if s has locks to bind.
func bindClock(s eventloop.Scheduler, clk vclock.Clock) {
	if b, ok := s.(interface{ BindClock(vclock.Clock) }); ok {
		b.BindClock(clk)
	}
}

// Inner returns the wrapped scheduler — the handle a reusing caller needs
// to Reseed it between trials without unwrapping-by-construction.
func (r *RecordingScheduler) Inner() eventloop.Scheduler { return r.inner }

// Trace returns a deep copy of the decisions recorded so far: nothing in
// the returned trace aliases the recorder's reusable buffers, so it stays
// valid across a Reset.
func (r *RecordingScheduler) Trace() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trace.Clone()
}

// Reset discards the recording in place, keeping every backing buffer for
// the next trial. Traces handed out earlier are unaffected (Trace copies).
func (r *RecordingScheduler) Reset() {
	r.mu.Lock()
	r.trace.Timers = r.trace.Timers[:0]
	r.trace.Shuffle = r.trace.Shuffle[:0]
	r.trace.Close = r.trace.Close[:0]
	r.trace.Pick = r.trace.Pick[:0]
	r.intBuf = r.intBuf[:0]
	r.mu.Unlock()
}

// Decisions forwards the inner scheduler's decision counters (zero when the
// inner scheduler does not count decisions).
func (r *RecordingScheduler) Decisions() DecisionCounters {
	d, _ := DecisionsOf(r.inner)
	return d
}

// Name implements eventloop.Scheduler.
func (r *RecordingScheduler) Name() string { return r.inner.Name() + "(recorded)" }

// Serialize implements eventloop.Scheduler.
func (r *RecordingScheduler) Serialize() bool { return r.inner.Serialize() }

// WaitPolicy implements eventloop.Scheduler.
func (r *RecordingScheduler) WaitPolicy() (int, time.Duration, time.Duration) {
	return r.inner.WaitPolicy()
}

// FilterTimers implements eventloop.Scheduler.
func (r *RecordingScheduler) FilterTimers(due int) (int, time.Duration) {
	run, delay := r.inner.FilterTimers(due)
	r.mu.Lock()
	r.trace.Timers = append(r.trace.Timers, TimerDecision{Due: due, Run: run, Delay: delay})
	r.mu.Unlock()
	return run, delay
}

// ShuffleReady implements eventloop.Scheduler. The ready lists are small
// (a poll batch), so positions are recovered by linear scan instead of a
// per-call map, and the index lists append into the shared flat buffer.
func (r *RecordingScheduler) ShuffleReady(ready, run, deferred []*eventloop.Event) ([]*eventloop.Event, []*eventloop.Event) {
	run, deferred = r.inner.ShuffleReady(ready, run, deferred)
	r.mu.Lock()
	d := ShuffleDecision{N: len(ready)}
	d.RunOrder = r.appendIndices(ready, run)
	d.Deferred = r.appendIndices(ready, deferred)
	r.trace.Shuffle = append(r.trace.Shuffle, d)
	r.mu.Unlock()
	return run, deferred
}

// appendIndices appends the position (in ready) of every event in sel to
// the flat int buffer and returns the appended span (nil when sel is
// empty, matching what building with append from nil produced). Caller
// holds r.mu. When the buffer grows, spans handed out earlier keep
// pointing at the old backing array — still correct, just no longer
// shared.
func (r *RecordingScheduler) appendIndices(ready, sel []*eventloop.Event) []int {
	if len(sel) == 0 {
		return nil
	}
	buf := r.intBuf
	start := len(buf)
	for _, e := range sel {
		for i, re := range ready {
			if re == e {
				buf = append(buf, i)
				break
			}
		}
	}
	r.intBuf = buf
	return buf[start:len(buf):len(buf)]
}

// DeferClose implements eventloop.Scheduler.
func (r *RecordingScheduler) DeferClose(label string) bool {
	v := r.inner.DeferClose(label)
	r.mu.Lock()
	r.trace.Close = append(r.trace.Close, v)
	r.mu.Unlock()
	return v
}

// PickTask implements eventloop.Scheduler.
func (r *RecordingScheduler) PickTask(n int) int {
	i := r.inner.PickTask(n)
	r.mu.Lock()
	r.trace.Pick = append(r.trace.Pick, PickDecision{N: n, I: i})
	r.mu.Unlock()
	return i
}

// ReplayScheduler replays a Trace, falling back to a base scheduler when a
// stream is exhausted or a decision does not fit the live hook call.
type ReplayScheduler struct {
	base eventloop.Scheduler

	mu    vclock.Mutex // bound to the loops' clock (BindClock)
	trace *Trace
	ti    int // next Timers index
	si    int // next Shuffle index
	ci    int // next Close index
	pi    int // next Pick index

	misses int
}

var _ eventloop.Scheduler = (*ReplayScheduler)(nil)

// NewReplay builds a replayer over trace; base supplies architecture flags
// and out-of-trace decisions (use the scheduler the trace was recorded
// from, with any seed).
func NewReplay(trace *Trace, base eventloop.Scheduler) *ReplayScheduler {
	return &ReplayScheduler{base: base, trace: trace}
}

// BindClock binds the replayer's lock, and the base scheduler's, to clk
// (see Scheduler.BindClock).
func (r *ReplayScheduler) BindClock(clk vclock.Clock) {
	r.mu.Bind(clk)
	bindClock(r.base, clk)
}

// Misses reports how many hook calls could not be served from the trace.
func (r *ReplayScheduler) Misses() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.misses
}

// Decisions forwards the base scheduler's decision counters (zero when the
// base scheduler does not count decisions).
func (r *ReplayScheduler) Decisions() DecisionCounters {
	d, _ := DecisionsOf(r.base)
	return d
}

// Name implements eventloop.Scheduler.
func (r *ReplayScheduler) Name() string { return r.base.Name() + "(replay)" }

// Serialize implements eventloop.Scheduler.
func (r *ReplayScheduler) Serialize() bool { return r.base.Serialize() }

// WaitPolicy implements eventloop.Scheduler.
func (r *ReplayScheduler) WaitPolicy() (int, time.Duration, time.Duration) {
	return r.base.WaitPolicy()
}

// FilterTimers implements eventloop.Scheduler.
func (r *ReplayScheduler) FilterTimers(due int) (int, time.Duration) {
	r.mu.Lock()
	for r.ti < len(r.trace.Timers) {
		d := r.trace.Timers[r.ti]
		r.ti++
		if d.Due == due {
			r.mu.Unlock()
			return d.Run, d.Delay
		}
		// Skip a stale entry; count the miss and keep scanning so streams
		// re-synchronize after divergence.
		r.misses++
	}
	r.misses++
	r.mu.Unlock()
	return r.base.FilterTimers(due)
}

// ShuffleReady implements eventloop.Scheduler.
func (r *ReplayScheduler) ShuffleReady(ready, run, deferred []*eventloop.Event) ([]*eventloop.Event, []*eventloop.Event) {
	r.mu.Lock()
	for r.si < len(r.trace.Shuffle) {
		d := r.trace.Shuffle[r.si]
		r.si++
		if d.N == len(ready) {
			r.mu.Unlock()
			for _, i := range d.RunOrder {
				run = append(run, ready[i])
			}
			for _, i := range d.Deferred {
				deferred = append(deferred, ready[i])
			}
			return run, deferred
		}
		r.misses++
	}
	r.misses++
	r.mu.Unlock()
	return r.base.ShuffleReady(ready, run, deferred)
}

// DeferClose implements eventloop.Scheduler.
func (r *ReplayScheduler) DeferClose(label string) bool {
	r.mu.Lock()
	if r.ci < len(r.trace.Close) {
		v := r.trace.Close[r.ci]
		r.ci++
		r.mu.Unlock()
		return v
	}
	r.misses++
	r.mu.Unlock()
	return r.base.DeferClose(label)
}

// PickTask implements eventloop.Scheduler.
func (r *ReplayScheduler) PickTask(n int) int {
	r.mu.Lock()
	for r.pi < len(r.trace.Pick) {
		d := r.trace.Pick[r.pi]
		r.pi++
		if d.N == n && d.I < n {
			r.mu.Unlock()
			return d.I
		}
		r.misses++
	}
	r.misses++
	r.mu.Unlock()
	return r.base.PickTask(n)
}
