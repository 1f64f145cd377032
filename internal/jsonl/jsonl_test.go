package jsonl

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
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

// scanFile writes content to a journal file and scans it, collecting the
// records of type "a" (any other type is unknown).
func scanFile(t *testing.T, content string) (recs []rec, torn bool, err error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	torn, err = Scan(path, "test", func(typ string, line []byte) (bool, error) {
		if typ != "a" {
			return false, nil
		}
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return true, err
		}
		recs = append(recs, r)
		return true, nil
	})
	return recs, torn, err
}

// TestScanLongRecord: a record far beyond bufio's default token size (a
// long schedule) is read whole; the buffer grows to fit it.
func TestScanLongRecord(t *testing.T) {
	long := rec{Type: "a", N: 2, Tag: strings.Repeat("x", 2<<20)}
	b, err := json.Marshal(long)
	if err != nil {
		t.Fatal(err)
	}
	recs, torn, err := scanFile(t, `{"type":"a","n":1}`+"\n"+string(b)+"\n"+`{"type":"a","n":3}`+"\n")
	if err != nil || torn {
		t.Fatalf("scan: torn %v, err %v", torn, err)
	}
	if len(recs) != 3 || recs[1] != long || recs[2].N != 3 {
		t.Fatalf("got %d records; the long one intact: %v", len(recs), len(recs) > 1 && recs[1] == long)
	}
}

// TestScanTornTail: a final line cut mid-record, as a killed writer leaves
// it, is tolerated and reported as torn; the records before it load.
func TestScanTornTail(t *testing.T) {
	recs, torn, err := scanFile(t, `{"type":"a","n":1}`+"\n"+`{"type":"a","n":2}`+"\n"+`{"type":"a","n`)
	if err != nil || !torn || len(recs) != 2 {
		t.Fatalf("records %d, torn %v, err %v; want 2, true, nil", len(recs), torn, err)
	}
}

// TestScanMalformedLineThenRecord: a malformed line with a record after it
// is not a torn tail, and scanning fails rather than drop it silently.
func TestScanMalformedLineThenRecord(t *testing.T) {
	for name, bad := range map[string]string{
		"unparsable":      `{"type":"a","n`,
		"undecodable rec": `{"type":"a","n":"one"}`,
	} {
		_, _, err := scanFile(t, `{"type":"a","n":1}`+"\n"+bad+"\n"+`{"type":"a","n":3}`+"\n")
		if err == nil || !strings.Contains(err.Error(), "line 3: records after a malformed line") {
			t.Errorf("%s: err = %v, want a records-after-malformed-line error at line 3", name, err)
		}
	}
}

// TestScanUnknownType: a record type the reader does not know is an error
// naming the line, never skipped.
func TestScanUnknownType(t *testing.T) {
	_, _, err := scanFile(t, `{"type":"a","n":1}`+"\n"+`{"type":"b","n":2}`+"\n")
	if err == nil || !strings.Contains(err.Error(), `line 2: unknown record type "b"`) {
		t.Fatalf("err = %v, want an unknown-record-type error at line 2", err)
	}
}

// TestScanTypeNotFirst: a record whose "type" is not its first key, or
// whose prefix Scan cannot read its type from, still loads, through the
// full decode.
func TestScanTypeNotFirst(t *testing.T) {
	recs, torn, err := scanFile(t, `{"n":1,"type":"a"}`+"\n"+`{"type":"a","n":2}`+"\n"+`{ "type":"a","n":3}`+"\n")
	if err != nil || torn || len(recs) != 3 || recs[0].N != 1 || recs[1].N != 2 || recs[2].N != 3 {
		t.Fatalf("records %+v, torn %v, err %v; want n = 1, 2, 3", recs, torn, err)
	}
}
