// Package wire is the binary codec of the simulated services: repkv's
// replica messages and write-ahead log, and kvstore's requests and
// responses. A message is a fixed sequence of fields that the Append
// functions write and a Reader reads back in the same order; the format
// carries no field names or tags, so both sides agree on the order.
//
// Field encodings:
//
//	unsigned integer  uvarint (encoding/binary)
//	signed integer    zig-zag varint (encoding/binary)
//	string            uvarint byte length, then the bytes
//	byte              the byte itself (type codes)
//	bool              one byte, 0 or 1
//	count             uvarint number of elements that follow
package wire

import (
	"encoding/binary"
	"errors"
)

// Errors a Reader reports.
var (
	// ErrTruncated: the input ended inside a field.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrLength: a string length or element count exceeds the bytes left.
	ErrLength = errors.New("wire: length exceeds input")
	// ErrValue: a varint overflows 64 bits, or a bool byte is not 0 or 1.
	ErrValue = errors.New("wire: malformed value")
	// ErrTrailing: bytes remain after the last field.
	ErrTrailing = errors.New("wire: trailing bytes")
)

// AppendUvarint appends v as a uvarint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a zig-zag varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendString appends s, prefixed with its length.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Reader reads the fields of one encoded input. Its error is sticky: the
// first malformed field sets it, and every later read returns the zero
// value without consuming input. A decoder therefore reads every field and
// checks the error once, with Done.
type Reader struct {
	buf []byte // the unread input
	err error
}

// NewReader returns a Reader over b. It reads b in place; a string it
// returns is a copy.
func NewReader(b []byte) Reader { return Reader{buf: b} }

func (r *Reader) fail(err error) {
	r.err = err
	r.buf = nil
}

// Uvarint reads an unsigned integer.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	switch {
	case n == 0:
		r.fail(ErrTruncated)
		return 0
	case n < 0:
		r.fail(ErrValue)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a signed integer.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	switch {
	case n == 0:
		r.fail(ErrTruncated)
		return 0
	case n < 0:
		r.fail(ErrValue)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.fail(ErrTruncated)
		return 0
	}
	c := r.buf[0]
	r.buf = r.buf[1:]
	return c
}

// Bool reads a bool.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail(ErrValue)
	return false
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if n > uint64(len(r.buf)) {
		r.fail(ErrLength)
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// Count reads the number of elements that follow. Every element takes at
// least one byte, so a count beyond the bytes left is an error: a caller
// may size a slice by the count without trusting the input.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if n > uint64(len(r.buf)) {
		r.fail(ErrLength)
		return 0
	}
	return int(n)
}

// More reports whether input is left to read and no error has occurred:
// the loop condition for a stream of records.
func (r *Reader) More() bool { return r.err == nil && len(r.buf) > 0 }

// Err returns the first error, if any.
func (r *Reader) Err() error { return r.err }

// Done ends a message: it returns the first error or, if every field read
// cleanly but input is left over, ErrTrailing.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) > 0 {
		r.fail(ErrTrailing)
	}
	return r.err
}
