package eventloop

import (
	"nodefz/internal/oracle"
	"nodefz/internal/vclock"
)

// Source is a pollable event source bound to a loop: the analogue of a file
// descriptor in the loop's epoll set. Network listeners, connections, and
// the fuzzer's de-multiplexed per-task completion descriptors (§4.3.3) are
// all Sources.
//
// A Source keeps its loop alive until closed. Closing it schedules the
// close callback for the loop's close phase (where the fuzzer may defer it)
// and discards any of the source's events still queued, matching the
// semantics of closing a libuv handle with pending I/O.
type Source struct {
	loop *Loop
	name string

	mu     vclock.Mutex // bound to the loop's clock
	closed bool
}

// NewSource registers a new event source with the loop. Safe from any
// goroutine. Sources are recycled across trials: Loop.Reset retires every
// source the previous trial created, so a pointer handed out here is never
// simultaneously live in two roles (the oracle keys per-connection FIFO
// chains by source pointer, which stays injective within a trial).
func (l *Loop) NewSource(name string) *Source {
	l.mu.Lock()
	l.refs++
	var s *Source
	if n := len(l.srcFree); n > 0 {
		s = l.srcFree[n-1]
		l.srcFree[n-1] = nil
		l.srcFree = l.srcFree[:n-1]
		s.name = name
	} else {
		s = &Source{loop: l, name: name}
		s.mu.Bind(l.clk)
	}
	l.srcAll = append(l.srcAll, s)
	l.mu.Unlock()
	return s
}

// Name returns the source's label.
func (s *Source) Name() string { return s.name }

// Post delivers an event produced by this source to the loop's poll phase.
// Events posted after Close are dropped. Safe from any goroutine.
func (s *Source) Post(kind, label string, cb func()) {
	s.PostRef(kind, label, oracle.Ref{}, cb)
}

// PostRef is Post carrying the oracle unit that caused the event (the
// sender of the message being delivered), captured loop-side by the
// substrate at send time. Safe from any goroutine.
func (s *Source) PostRef(kind, label string, ref oracle.Ref, cb func()) {
	if !s.isClosed() {
		s.loop.postEvent(kind, label, s, ref, cb, nil, nil)
	}
}

// PostData is PostRef for an event that carries a payload: the loop runs
// fn(data). A substrate binds fn once per source (a connection's read
// handler, say), so posting a message allocates no closure. Safe from any
// goroutine.
func (s *Source) PostData(kind, label string, ref oracle.Ref, fn func([]byte), data []byte) {
	if !s.isClosed() {
		s.loop.postEvent(kind, label, s, ref, nil, fn, data)
	}
}

// isClosed reports whether the source has been closed; closed sources'
// queued events are skipped by the poll phase.
func (s *Source) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close tears the source down: its undelivered events are discarded and cb
// (which may be nil) runs in a subsequent close phase of the loop, subject
// to the scheduler's close-deferral decision. The loop reference is dropped
// only after the close callback has run. Closing twice is a no-op. Safe
// from any goroutine.
func (s *Source) Close(cb func()) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.loop.queueClose(s, cb)
}
