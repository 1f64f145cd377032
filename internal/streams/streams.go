// Package streams provides Node-style object streams: a push-based
// Readable with pause/resume flow control, a Writable with an asynchronous
// sink and 'drain' backpressure, and Pipe to connect them. Streams are the
// other half of Node's event-driven API surface (§2.2's network/file
// libraries all speak streams), and their chunk/drain callbacks are
// textbook callback chains for the fuzzer to reorder — legally: chunk
// order within one stream is preserved (the data events ride one Source,
// so the loop's per-source FIFO rule applies).
//
// Streams are single-loop objects: handler registration and Writable calls
// happen on the loop; Readable.Push and Readable.End are additionally safe
// from other goroutines, which is how producer substrates feed data in.
package streams

import (
	"sync"

	"nodefz/internal/eventloop"
)

// DefaultHighWaterMark is the backpressure threshold in bytes.
const DefaultHighWaterMark = 16 * 1024

// Readable is a push-based source with pause/resume.
type Readable struct {
	loop *eventloop.Loop
	src  *eventloop.Source
	hwm  int

	mu       sync.Mutex
	buffered int // bytes pushed, not yet handed to the consumer
	ended    bool

	// loop-side state
	paused     bool
	pending    [][]byte
	endPending bool
	endFired   bool
	onData     func([]byte)
	onEnd      func()
}

// NewReadable creates a readable stream on the loop. hwm <= 0 selects
// DefaultHighWaterMark.
func NewReadable(l *eventloop.Loop, hwm int) *Readable {
	if hwm <= 0 {
		hwm = DefaultHighWaterMark
	}
	return &Readable{loop: l, src: l.NewSource("readable"), hwm: hwm}
}

// OnData registers the chunk consumer.
func (r *Readable) OnData(fn func([]byte)) { r.onData = fn }

// OnEnd registers the end-of-stream handler.
func (r *Readable) OnEnd(fn func()) { r.onEnd = fn }

// Buffered reports bytes pushed but not yet delivered.
func (r *Readable) Buffered() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buffered
}

// Push feeds one chunk into the stream. It reports whether the producer
// may keep pushing (false = buffered data reached the high-water mark —
// backpressure). Pushing after End returns false and drops the chunk.
// Safe from any goroutine.
func (r *Readable) Push(chunk []byte) bool {
	r.mu.Lock()
	if r.ended {
		r.mu.Unlock()
		return false
	}
	r.buffered += len(chunk)
	under := r.buffered < r.hwm
	r.mu.Unlock()

	data := append([]byte(nil), chunk...)
	r.src.Post("stream-data", "", func() {
		if r.paused {
			r.pending = append(r.pending, data)
			return
		}
		r.deliver(data)
	})
	return under
}

// End marks the stream finished: after the already-pushed chunks are
// delivered, the end handler fires. Idempotent; safe from any goroutine.
func (r *Readable) End() {
	r.mu.Lock()
	if r.ended {
		r.mu.Unlock()
		return
	}
	r.ended = true
	r.mu.Unlock()
	r.src.Post("stream-end", "", func() {
		if r.paused || len(r.pending) > 0 {
			r.endPending = true
			return
		}
		r.fireEnd()
	})
}

// Pause stops delivery; chunks accumulate until Resume. Loop-side only.
func (r *Readable) Pause() { r.paused = true }

// Paused reports the flow state.
func (r *Readable) Paused() bool { return r.paused }

// Resume restarts delivery; buffered chunks drain on the next tick, in
// order, before any newly-arriving data event (which queues behind the
// same source). Loop-side only.
func (r *Readable) Resume() {
	if !r.paused {
		return
	}
	r.paused = false
	r.loop.NextTickNamed("stream-drain", r.drain)
}

func (r *Readable) drain() {
	for len(r.pending) > 0 && !r.paused {
		chunk := r.pending[0]
		r.pending = r.pending[1:]
		r.deliver(chunk)
	}
	if r.endPending && !r.paused && len(r.pending) == 0 {
		r.fireEnd()
	}
}

func (r *Readable) deliver(chunk []byte) {
	r.mu.Lock()
	r.buffered -= len(chunk)
	r.mu.Unlock()
	if r.onData != nil {
		r.onData(chunk)
	}
}

func (r *Readable) fireEnd() {
	if r.endFired {
		return
	}
	r.endFired = true
	if r.onEnd != nil {
		r.onEnd()
	}
	r.src.Close(nil)
}

// Sink persists one chunk asynchronously and calls done exactly once — the
// adapter a Writable drives (fs append, socket send, ...).
type Sink func(chunk []byte, done func(error))

// Writable queues chunks into an asynchronous sink, one in flight at a
// time, with 'drain' backpressure. Loop-side only.
type Writable struct {
	loop *eventloop.Loop
	sink Sink
	hwm  int

	queue    [][]byte
	queued   int // bytes queued or in flight
	writing  bool
	ended    bool
	finished bool

	needDrain bool
	onDrain   func()
	onFinish  func()
	onError   func(error)
	failed    bool
}

// NewWritable creates a writable stream over sink. hwm <= 0 selects
// DefaultHighWaterMark.
func NewWritable(l *eventloop.Loop, hwm int, sink Sink) *Writable {
	if hwm <= 0 {
		hwm = DefaultHighWaterMark
	}
	return &Writable{loop: l, sink: sink, hwm: hwm}
}

// OnDrain registers the backpressure-released handler: it fires after a
// Write returned false and the queue has fully flushed.
func (w *Writable) OnDrain(fn func()) { w.onDrain = fn }

// OnFinish registers the all-written handler (after End).
func (w *Writable) OnFinish(fn func()) { w.onFinish = fn }

// OnError registers the sink-failure handler; after a failure the stream
// stops writing.
func (w *Writable) OnError(fn func(error)) { w.onError = fn }

// Queued reports bytes accepted but not yet confirmed by the sink.
func (w *Writable) Queued() int { return w.queued }

// Write queues one chunk. It reports whether the caller may keep writing
// (false = wait for 'drain'). Writing after End drops the chunk and
// reports false.
func (w *Writable) Write(chunk []byte) bool {
	if w.ended || w.failed {
		return false
	}
	w.queue = append(w.queue, append([]byte(nil), chunk...))
	w.queued += len(chunk)
	w.kick()
	if w.queued >= w.hwm {
		w.needDrain = true
		return false
	}
	return true
}

// End marks the stream complete; OnFinish fires once the queue has fully
// flushed. Idempotent.
func (w *Writable) End() {
	if w.ended {
		return
	}
	w.ended = true
	w.maybeFinish()
}

func (w *Writable) kick() {
	if w.writing || w.failed || len(w.queue) == 0 {
		return
	}
	w.writing = true
	chunk := w.queue[0]
	w.queue = w.queue[1:]
	w.sink(chunk, func(err error) {
		w.writing = false
		w.queued -= len(chunk)
		if err != nil {
			w.failed = true
			if w.onError != nil {
				w.onError(err)
			}
			return
		}
		if len(w.queue) > 0 {
			w.kick()
			return
		}
		if w.needDrain {
			w.needDrain = false
			if w.onDrain != nil {
				w.onDrain()
			}
		}
		w.maybeFinish()
	})
}

func (w *Writable) maybeFinish() {
	if !w.ended || w.finished || w.failed || w.writing || len(w.queue) > 0 {
		return
	}
	w.finished = true
	if w.onFinish != nil {
		w.onFinish()
	}
}

// Pipe connects r to w with backpressure: chunks flow in order; when w
// reports pressure, r pauses until w drains; r's end closes w. onDone runs
// when w finishes (or errors, with the error).
func Pipe(r *Readable, w *Writable, onDone func(error)) {
	if onDone == nil {
		onDone = func(error) {}
	}
	r.OnData(func(chunk []byte) {
		if !w.Write(chunk) {
			r.Pause()
		}
	})
	w.OnDrain(func() { r.Resume() })
	r.OnEnd(func() { w.End() })
	w.OnFinish(func() { onDone(nil) })
	w.OnError(func(err error) { onDone(err) })
}
