// Package jsonl writes and reads the JSON Lines streams the fuzzer records:
// campaign and fleet journals, per-trial metrics, oracle violation reports
// and the fleet dashboard. One Writer serves them all; the reader side is
// the journals' torn-tail handling — a scanner that tolerates the partial
// final line a killed writer leaves, and the truncation that drops that
// line before a resumed writer appends.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// Writer appends records of type T to a JSON Lines stream, one JSON value
// per line. It is safe for concurrent use, and one Append holds the lock
// for all its records, so they land on consecutive lines. The first error
// is sticky: later calls return it without writing, because a torn stream
// is worse than a short one. Every method is nil-safe, so an output that is
// switched off is a nil *Writer.
type Writer[T any] struct {
	mu  sync.Mutex
	f   *os.File      // the file Create or Reopen opened; nil after Close or from New
	bw  *bufio.Writer // nil: write-through, one write per record
	enc *json.Encoder
	n   int
	err error
}

// New returns a write-through Writer onto w. The caller keeps w: Close
// does not close it.
func New[T any](w io.Writer) *Writer[T] {
	return &Writer[T]{enc: json.NewEncoder(w)}
}

// Create creates or truncates the file at path. A write-through Writer
// issues one write per record, so a SIGKILL loses at most the line being
// written. A buffered one batches records into 32 KB writes (one syscall
// per flush, which counts at campaign trial rates), and its owner picks the
// durability points by calling Flush; write errors may then surface only at
// Flush or Close.
func Create[T any](path string, buffered bool) (*Writer[T], error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &Writer[T]{f: f}
	if buffered {
		w.bw = bufio.NewWriterSize(f, 32<<10)
		w.enc = json.NewEncoder(w.bw)
	} else {
		w.enc = json.NewEncoder(f)
	}
	return w, nil
}

// Reopen opens the file at path for appending, write-through, creating it
// if absent. A torn final line (the previous writer was killed mid-append)
// is truncated away first, so new records never concatenate onto a partial
// one; that record was lost the moment the kill landed.
func Reopen[T any](path string) (*Writer[T], error) {
	if err := truncateTornTail(path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Writer[T]{f: f, enc: json.NewEncoder(f)}, nil
}

// Append writes recs as consecutive lines and returns the Writer's first
// error. A record that fails to encode writes nothing and becomes that
// error.
func (w *Writer[T]) Append(recs ...T) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, rec := range recs {
		if w.err != nil {
			break
		}
		// Encode marshals into the encoder's pooled scratch and hands the
		// line, newline included, to the output in one Write.
		if w.err = w.enc.Encode(rec); w.err == nil {
			w.n++
		}
	}
	return w.err
}

// Count returns the number of records written so far.
func (w *Writer[T]) Count() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Err returns the first error, if any.
func (w *Writer[T]) Err() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Flush pushes buffered records to the file; a write-through Writer has
// nothing to push. It returns the Writer's first error.
func (w *Writer[T]) Flush() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flush()
}

func (w *Writer[T]) flush() error {
	if w.err == nil && w.bw != nil {
		w.err = w.bw.Flush()
	}
	return w.err
}

// Close flushes, closes the file Create or Reopen opened, and returns the
// Writer's first error: a failed encode, write, flush or close. A Writer
// from New leaves its io.Writer open.
func (w *Writer[T]) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.flush()
	if w.f != nil {
		if err := w.f.Close(); w.err == nil {
			w.err = err
		}
		w.f = nil
	}
	return w.err
}

// truncateTornTail truncates path to the end of its last newline-terminated
// line. A missing file is fine; a file with no newline at all becomes
// empty.
func truncateTornTail(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	buf := make([]byte, 64<<10)
	end := size
	for end > 0 {
		n := int64(len(buf))
		if n > end {
			n = end
		}
		start := end - n
		if _, err := f.ReadAt(buf[:n], start); err != nil {
			return err
		}
		for i := n - 1; i >= 0; i-- {
			if buf[i] == '\n' {
				cut := start + i + 1
				if cut < size {
					return f.Truncate(cut)
				}
				return nil
			}
		}
		end = start
	}
	if size > 0 {
		return f.Truncate(0)
	}
	return nil
}

// Scan reads the JSON Lines journal at path — a campaign's or a fleet's —
// one record at a time, tolerating a torn tail: record gets each non-blank
// line with its "type" field and reports whether it knows the type and
// whether the line failed to decode. A missing file is an empty journal. A
// line that fails to parse is taken for the torn final line a killed writer
// leaves behind (torn is then true); a malformed line with records after
// it, or a record of unknown type, is an error, prefixed with owner.
//
// The type of a line that begins the way this package's writers begin a
// record, {"type":"…", is read from that prefix without parsing the line,
// so record must decode every line it knows, or Validate it, and report a
// failure as err.
func Scan(path, owner string, record func(typ string, line []byte) (known bool, err error)) (torn bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer f.Close()

	// The buffer starts at bufio's default size and grows to fit the
	// longest line, up to 16 MiB.
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if torn {
			return false, fmt.Errorf("%s: journal %s line %d: records after a malformed line", owner, path, lineNo)
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		typ, peeked := peekType(line)
		if !peeked {
			var kind struct {
				Type string `json:"type"`
			}
			if err := json.Unmarshal(line, &kind); err != nil {
				// Possibly the torn final line; fail only if more records
				// follow.
				torn = true
				continue
			}
			typ = kind.Type
		}
		known, err := record(typ, line)
		if !known {
			if peeked && !json.Valid(line) {
				torn = true
				continue
			}
			return false, fmt.Errorf("%s: journal %s line %d: unknown record type %q", owner, path, lineNo, typ)
		}
		if err != nil {
			torn = true
		}
	}
	if err := sc.Err(); err != nil {
		return false, err
	}
	return torn, nil
}

// Validate reports an error when line is not one JSON value: the check a
// Scan record func makes on a line it knows but does not decode.
func Validate(line []byte) error {
	if !json.Valid(line) {
		return errMalformed
	}
	return nil
}

var errMalformed = errors.New("jsonl: malformed record")

// typePrefix is how the writers' records begin: every journal record type
// declares its "type" field first.
var typePrefix = []byte(`{"type":"`)

// peekType reads a line's record type from typePrefix: the name must be
// free of escapes and followed by the next field or the end of the object.
// ok is false for any other shape, which Scan then decodes in full.
func peekType(line []byte) (typ string, ok bool) {
	rest, ok := bytes.CutPrefix(line, typePrefix)
	if !ok {
		return "", false
	}
	end := bytes.IndexByte(rest, '"')
	if end < 0 || end+1 == len(rest) || (rest[end+1] != ',' && rest[end+1] != '}') {
		return "", false
	}
	name := rest[:end]
	if bytes.IndexByte(name, '\\') >= 0 {
		return "", false
	}
	return string(name), true
}
