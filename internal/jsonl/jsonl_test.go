package jsonl

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sync"
	"testing"
)

type rec struct {
	Type string `json:"type"`
	N    int    `json:"n"`
	Tag  string `json:"tag,omitempty"`
}

// TestAppendMatchesMarshal: a record's line is exactly json.Marshal's bytes
// plus a newline, and one Append writes its records in order.
func TestAppendMatchesMarshal(t *testing.T) {
	recs := []rec{{Type: "a", N: 1, Tag: "<&>"}, {Type: "b", N: 2}}
	var buf bytes.Buffer
	w := New[rec](&buf)
	if err := w.Append(recs...); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, b...), '\n')
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("stream\n%s\nwant\n%s", buf.Bytes(), want)
	}
	if w.Count() != len(recs) {
		t.Errorf("count = %d, want %d", w.Count(), len(recs))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendKeepsRecordsTogether: concurrent Appends never interleave, so
// one call's records (a trial's violations) land on consecutive lines.
func TestAppendKeepsRecordsTogether(t *testing.T) {
	const writers, perCall, calls = 4, 3, 50
	var buf bytes.Buffer
	w := New[rec](&buf)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for c := 0; c < calls; c++ {
				batch := make([]rec, perCall)
				for i := range batch {
					batch[i] = rec{Type: "v", N: g}
				}
				if err := w.Append(batch...); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if w.Count() != writers*perCall*calls {
		t.Fatalf("count = %d, want %d", w.Count(), writers*perCall*calls)
	}
	dec := json.NewDecoder(&buf)
	for line := 1; dec.More(); line += perCall {
		recs := make([]rec, perCall)
		for i := range recs {
			if err := dec.Decode(&recs[i]); err != nil {
				t.Fatal(err)
			}
			if recs[i].N != recs[0].N {
				t.Fatalf("line %d: writer %d's record inside writer %d's Append", line+i, recs[i].N, recs[0].N)
			}
		}
	}
}

// TestWriterStickyError: after a write error the writer refuses further
// records rather than emitting a torn stream.
func TestWriterStickyError(t *testing.T) {
	w := New[rec](failWriter{})
	if err := w.Append(rec{Type: "a"}); err == nil {
		t.Fatal("expected write error")
	}
	if err := w.Append(rec{Type: "a"}); err == nil {
		t.Fatal("expected sticky error")
	}
	if w.Count() != 0 {
		t.Errorf("count = %d after failed writes, want 0", w.Count())
	}
	if err := w.Close(); err == nil {
		t.Error("Close must return the sticky error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrShortWrite }

// TestCloseReportsFullDisk: a buffered writer accepts records into memory,
// so a full disk shows only when they are pushed out; Close must report it.
func TestCloseReportsFullDisk(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	w, err := Create[rec]("/dev/full", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec{Type: "a"}); err != nil {
		t.Fatalf("buffered append: %v", err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close on /dev/full returned nil")
	}
}
