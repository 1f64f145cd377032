// Package oracle is a dynamic concurrency-violation detector for the AMPED
// model: a happens-before tracker over event-loop callbacks plus a
// shadow-state access tracker that flags the paper's §3 taxonomy —
// ordering violations (conflicting accesses unordered by happens-before)
// and atomicity violations (a multi-callback span on one cell interleaved
// by a conflicting concurrent callback, the Fig. 2 socket.io shape) —
// without relying on an application's own assertions.
//
// # Units and happens-before
//
// The unit of scheduling in the AMPED model is one callback execution on
// the event-loop thread. The substrates bracket every callback with
// Begin/End and thread a Ref — an opaque handle to the registering unit —
// through each asynchronous registration, so the tracker derives the
// happens-before relation from the substrate's own causality:
//
//   - callback X registered timer/tick/immediate/pending/close Y:  X → Y
//   - callback X submitted pool work whose done-callback is Y:     X → Y
//   - per-source (per-connection) FIFO delivery:                   Yi → Yi+1
//   - simnet send by X delivered to peer's handler Y:              X → Y
//   - interval timer firing i → firing i+1
//   - emitter Emit runs listeners synchronously (same unit, no edge needed)
//   - explicit counter/gate synchronization via Sync (see below)
//
// Happens-before is maintained with vector clocks over a greedy chain
// decomposition: a unit extends its primary predecessor's chain when that
// predecessor is still the chain tail, otherwise it starts a new chain, so
// long causal lines (a connection's request → response → next request)
// stay compact and HB queries are O(1) per pair.
//
// # Cells and accesses
//
// Applications and substrates tag reads and writes of logically-shared
// state — kvstore keys, filesystem paths, module variables — with
// Access(cell, op). The discipline is: tag an access where the code RELIES
// on an ordering or atomicity assumption about it; a patch that makes code
// order-insensitive (a verified EEXIST check, a commutative counter)
// removes the reliance and therefore the tag, or downgrades the operation
// to Atomic. Two accesses conflict unless both are reads or both are
// atomic read-modify-writes (atomics commute with each other but not with
// plain reads or writes).
//
// # Suppression: detector taint
//
// Harness detectors (bugs.WaitUntil, watchdogs) synchronize with the
// application through polled flags, which happens-before tracking cannot
// see; their accesses would otherwise race everything. Units labelled
// "detector" or "watchdog", and every unit causally downstream of one, are
// tainted; violations involving a tainted unit are suppressed.
//
// The zero *Tracker (nil) is valid everywhere: every method nil-checks the
// receiver and no-ops, so instrumentation hooks cost one predictable
// branch when the oracle is off.
package oracle

// AccessKind classifies one tagged access to a shared cell.
type AccessKind uint8

const (
	// Read is a plain read that relies on observing a particular state.
	Read AccessKind = iota
	// Write is a plain write (or non-commutative read-modify-write).
	Write
	// Atomic is a commutative read-modify-write (SETNX, INCR, a
	// remaining-counter decrement): atomics commute with each other, so
	// Atomic~Atomic pairs never conflict, but an Atomic still conflicts
	// with a plain Read or Write.
	Atomic
)

// String returns the JSONL op name.
func (k AccessKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Atomic:
		return "atomic"
	}
	return "unknown"
}

// conflicts reports whether two access kinds conflict: every pairing does
// except read~read and atomic~atomic.
func conflicts(a, b AccessKind) bool {
	return !(a == Read && b == Read) && !(a == Atomic && b == Atomic)
}

// Ref is an opaque handle to a unit, captured at registration time with
// Current and handed back as a predecessor at Begin. The zero Ref means
// "no predecessor".
type Ref struct{ u *unit }

// Valid reports whether the Ref names a unit.
func (r Ref) Valid() bool { return r.u != nil }

// Token brackets one unit execution; returned by Begin, consumed by End.
// The zero Token is a no-op to End.
type Token struct{ u *unit }

// Ref returns a Ref to the token's unit, so a substrate can chain an
// interval timer's next firing to the one that just ran.
func (tok Token) Ref() Ref { return Ref{u: tok.u} }

// SpanToken brackets one intended-atomic multi-callback region; returned
// by BeginSpan, consumed by EndSpan. The zero SpanToken is a no-op.
type SpanToken struct{ s *span }
