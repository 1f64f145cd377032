package wire

import (
	"errors"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, math.MaxUint64)
	b = AppendVarint(b, -1)
	b = AppendVarint(b, math.MinInt64)
	b = AppendString(b, "")
	b = AppendString(b, "héllo")
	b = append(b, 7)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendUvarint(b, 2) // a count of two one-byte elements
	b = append(b, 'a', 'b')

	r := NewReader(b)
	if got := r.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d, want 0", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Errorf("Uvarint = %d, want MaxUint64", got)
	}
	if got := r.Varint(); got != -1 {
		t.Errorf("Varint = %d, want -1", got)
	}
	if got := r.Varint(); got != math.MinInt64 {
		t.Errorf("Varint = %d, want MinInt64", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("String = %q, want empty", got)
	}
	if got := r.String(); got != "héllo" {
		t.Errorf("String = %q, want héllo", got)
	}
	if got := r.Byte(); got != 7 {
		t.Errorf("Byte = %d, want 7", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool did not read true, false")
	}
	if got := r.Count(); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
	if r.Byte() != 'a' || !r.More() || r.Byte() != 'b' || r.More() {
		t.Error("elements misread")
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done = %v", err)
	}
}

func TestMalformed(t *testing.T) {
	str := AppendString(nil, "abc")
	for _, c := range []struct {
		name string
		in   []byte
		read func(r *Reader)
		want error
	}{
		{"empty uvarint", nil, func(r *Reader) { r.Uvarint() }, ErrTruncated},
		{"torn uvarint", []byte{0x80}, func(r *Reader) { r.Uvarint() }, ErrTruncated},
		{"torn varint", []byte{0xff, 0xff}, func(r *Reader) { r.Varint() }, ErrTruncated},
		{"uvarint overflow", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
			func(r *Reader) { r.Uvarint() }, ErrValue},
		{"varint overflow", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
			func(r *Reader) { r.Varint() }, ErrValue},
		{"empty byte", nil, func(r *Reader) { r.Byte() }, ErrTruncated},
		{"bool out of range", []byte{2}, func(r *Reader) { r.Bool() }, ErrValue},
		{"torn string", str[:len(str)-1], func(r *Reader) { _ = r.String() }, ErrLength},
		{"huge string length", AppendUvarint(nil, math.MaxUint64), func(r *Reader) { _ = r.String() }, ErrLength},
		{"count beyond input", append(AppendUvarint(nil, 3), 1, 2), func(r *Reader) { r.Count() }, ErrLength},
		{"trailing bytes", append(str, 0), func(r *Reader) { _ = r.String() }, ErrTrailing},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := NewReader(c.in)
			c.read(&r)
			if err := r.Done(); !errors.Is(err, c.want) {
				t.Fatalf("Done = %v, want %v", err, c.want)
			}
			// Sticky: a later read returns zero and keeps the first error.
			if r.Uvarint() != 0 || r.String() != "" || r.Byte() != 0 || r.Count() != 0 || r.More() {
				t.Error("read after an error returned data")
			}
			if !errors.Is(r.Err(), c.want) {
				t.Errorf("Err = %v after more reads, want %v", r.Err(), c.want)
			}
		})
	}
}

// value is one field read by the fuzz target's script.
type value struct {
	op  byte
	u   uint64
	i   int64
	s   string
	b   byte
	ok  bool
	cnt int
}

// readScript reads one field per op from data, in the op's kind, checking
// after each read that the reader only moves forward within data and
// returns zero values once it has failed.
func readScript(t *testing.T, ops, data []byte) ([]value, Reader) {
	r := NewReader(data)
	vals := make([]value, 0, len(ops))
	for _, op := range ops {
		before := len(r.buf)
		failed := r.err != nil
		v := value{op: op % 6}
		switch v.op {
		case 0:
			v.u = r.Uvarint()
		case 1:
			v.i = r.Varint()
		case 2:
			v.s = r.String()
		case 3:
			v.b = r.Byte()
		case 4:
			v.ok = r.Bool()
		case 5:
			v.cnt = r.Count()
			if v.cnt > len(r.buf) {
				t.Fatalf("Count %d exceeds the %d bytes left", v.cnt, len(r.buf))
			}
		}
		if len(r.buf) > before {
			t.Fatalf("op %d: unread input grew from %d to %d bytes", v.op, before, len(r.buf))
		}
		if len(r.buf) > 0 && &r.buf[len(r.buf)-1] != &data[len(data)-1] {
			t.Fatalf("op %d: unread input is not a suffix of the input", v.op)
		}
		if failed && (v != value{op: v.op}) {
			t.Fatalf("op %d: read after an error returned %+v", v.op, v)
		}
		vals = append(vals, v)
	}
	return vals, r
}

// FuzzReader drives a Reader over arbitrary input with an arbitrary
// sequence of field reads: no input may panic it or move it outside the
// input, and whatever it reads cleanly must re-encode into an input that
// reads back the same values and nothing more.
func FuzzReader(f *testing.F) {
	msg := AppendUvarint(nil, 300)
	msg = AppendVarint(msg, -42)
	msg = AppendString(msg, "key")
	msg = append(msg, 9)
	msg = AppendBool(msg, true)
	msg = AppendUvarint(msg, 1)
	msg = AppendString(msg, "x")
	script := []byte{0, 1, 2, 3, 4, 5, 2}
	f.Add(script, msg)
	f.Add(script, msg[:len(msg)-1])
	f.Add(script, append(msg, 0))
	f.Add([]byte{2}, AppendUvarint(nil, 1<<40))
	f.Add([]byte{4}, []byte{5})
	f.Add([]byte{1, 1}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		vals, r := readScript(t, ops, data)
		if r.Err() != nil {
			if r.More() || r.Done() != r.Err() {
				t.Fatalf("failed reader: More=%v Done=%v Err=%v", r.More(), r.Done(), r.Err())
			}
			return
		}
		var enc []byte
		for _, v := range vals {
			switch v.op {
			case 0:
				enc = AppendUvarint(enc, v.u)
			case 1:
				enc = AppendVarint(enc, v.i)
			case 2:
				enc = AppendString(enc, v.s)
			case 3:
				enc = append(enc, v.b)
			case 4:
				enc = AppendBool(enc, v.ok)
			case 5:
				enc = AppendUvarint(enc, uint64(v.cnt))
			}
		}
		// A count claims bytes that follow; the re-encoding need not hold
		// them, so only scripts without one must read back.
		for _, v := range vals {
			if v.op == 5 && v.cnt > 0 {
				return
			}
		}
		again, r2 := readScript(t, ops, enc)
		if err := r2.Done(); err != nil {
			t.Fatalf("re-encoding of %+v does not read back: %v", vals, err)
		}
		for i := range vals {
			if again[i] != vals[i] {
				t.Fatalf("field %d: read %+v, re-read %+v", i, vals[i], again[i])
			}
		}
	})
}
