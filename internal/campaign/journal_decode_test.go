package campaign

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

	"nodefz/internal/bugs"
)

// journalLines returns the non-blank lines of the journal at path.
func journalLines(t testing.TB, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) > 0 {
			lines = append(lines, line)
		}
	}
	return lines
}

// jsonJournalState decodes every line of a complete journal with
// encoding/json: the reference LoadJournal's scanner must reproduce.
func jsonJournalState(t *testing.T, path string) *JournalState {
	t.Helper()
	st := &JournalState{Trials: make(map[int]TrialEntry)}
	for _, line := range journalLines(t, path) {
		var kind struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &kind); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		var err error
		switch kind.Type {
		case "trial":
			var e TrialEntry
			err = json.Unmarshal(line, &e)
			st.Trials[e.Trial] = e
		case "minimized":
			var e MinimizedEntry
			err = json.Unmarshal(line, &e)
			st.Minimized = append(st.Minimized, e)
		case "coverage":
			var e CoverageEntry
			err = json.Unmarshal(line, &e)
			st.Coverage = append(st.Coverage, e)
		}
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
	}
	return st
}

// TestLoadJournalMatchesEncodingJSON writes a 300-trial SIO coverage
// journal and a 100-trial REP-elect oracle journal and requires
// LoadJournal's state to equal the encoding/json decode of every line,
// with every trial and coverage line read by the scanner rather than
// handed to json.Unmarshal.
func TestLoadJournalMatchesEncodingJSON(t *testing.T) {
	for _, tc := range []struct {
		app      string
		trials   int
		seed     int64
		coverage bool
	}{
		{"SIO", 300, 3, true},
		{"REP-elect", 100, 5, false},
	} {
		t.Run(tc.app, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			if _, err := Run(Config{
				App: bugs.ByAbbr(tc.app), Trials: tc.trials, Workers: 1, BaseSeed: tc.seed,
				Oracle: true, Coverage: tc.coverage, CheckpointPath: path,
			}); err != nil {
				t.Fatal(err)
			}
			got, err := LoadJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			want := jsonJournalState(t, path)
			if len(want.Trials) != tc.trials || len(want.Minimized) == 0 || tc.coverage != (len(want.Coverage) > 0) {
				t.Fatalf("journal holds %d trials, %d minimized and %d coverage records",
					len(want.Trials), len(want.Minimized), len(want.Coverage))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("LoadJournal's state differs from the encoding/json decode")
			}
			var d journalDecoder
			for _, line := range journalLines(t, path) {
				var ok bool
				switch {
				case bytes.HasPrefix(line, []byte(`{"type":"trial"`)):
					ok = d.scanTrial(line, new(TrialEntry))
				case bytes.HasPrefix(line, []byte(`{"type":"coverage"`)):
					ok = d.scanCoverage(line, new(CoverageEntry))
				default:
					continue
				}
				if !ok {
					t.Errorf("the scanner handed a line the writer produced to json.Unmarshal: %s", line)
				}
			}
		})
	}
}

// TestJournalDecoderInterns: the strings a journal repeats share one copy.
func TestJournalDecoderInterns(t *testing.T) {
	var d journalDecoder
	a, err := d.trial([]byte(`{"type":"trial","arm_name":"timer-heavy","schedule":["timer","close","timer"]}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.trial([]byte(`{"type":"trial","arm_name":"timer-heavy","schedule":["close"]}`))
	if err != nil {
		t.Fatal(err)
	}
	same := func(x, y string) bool { return x == y && unsafe.StringData(x) == unsafe.StringData(y) }
	if !same(a.ArmName, b.ArmName) || !same(a.Schedule[0], a.Schedule[2]) || !same(a.Schedule[1], b.Schedule[0]) {
		t.Error("repeated strings were not interned")
	}
}

// FuzzJournalLine checks the scanner against encoding/json. Raw mode feeds
// line to the scanner: a line it accepts must decode without error under
// json.Unmarshal, to an equal struct. Structured mode builds a TrialEntry
// and a CoverageEntry from the inputs, marshals them, and requires the
// decode LoadJournal uses (scanner, else json.Unmarshal) to equal
// json.Unmarshal's; a record whose strings are all ASCII must not leave
// the scanner.
func FuzzJournalLine(f *testing.F) {
	// Real journal lines: a short SIO coverage campaign (trial, coverage and
	// minimized records) and a REP-elect oracle campaign (long schedules).
	for _, cfg := range []Config{
		{App: bugs.ByAbbr("SIO"), Trials: 8, Workers: 1, BaseSeed: 3, Coverage: true},
		{App: bugs.ByAbbr("REP-elect"), Trials: 2, Workers: 1, BaseSeed: 5, Oracle: true, MinimizeTrials: -1},
	} {
		cfg.CheckpointPath = filepath.Join(f.TempDir(), "journal.jsonl")
		if _, err := Run(cfg); err != nil {
			f.Fatal(err)
		}
		for _, line := range journalLines(f, cfg.CheckpointPath) {
			f.Add(line, false, int64(0), int64(0), 0.0, 0.0, uint8(0))
		}
	}
	// Lines json.Unmarshal must decide.
	for _, line := range []string{
		`{"type":"trial","note":"caf\u00e9"}`,
		`{"type":"trial","note":"a\/b"}`,
		`{"type":"trial","note":"café"}`,
		"{\"type\":\"trial\",\"note\":\"\xff\"}",
		`{"type":"trial","schedule":null}`,
		`{"type":"trial","Trial":3}`,
		`{"type":"trial","trial":3,"trial":4}`,
		`{"type":"trial","bogus":1}`,
		`{"type":"trial","trial":1.5}`,
		`{"type":"trial","trial":1e2}`,
		`{"type":"trial","trial":9223372036854775808}`,
		`{"type":"trial","reward":1e400}`,
		`{"type":"trial","reward":01}`,
		`{"type":"trial","reward":-}`,
		`{"type":"trial","trial":1}x`,
		`{"type":"trial", "trial":1}`,
		`{"type":"trial","schedule":["a",]}`,
		`{"type":"coverage","trial":2,"tuples":["a\u003eb"],"pairs":[]}`,
		`{"type":"coverage","trial":2,"tuples":["a\u003eb"`,
		`{"type":"coverage","hb_digest":"\ud83d\ude00"}`,
		`{"type":"coverage","hb_digest":"\x"}`,
		`{}`,
		`[]`,
	} {
		f.Add([]byte(line), false, int64(0), int64(0), 0.0, 0.0, uint8(0))
	}
	// Structured records: escaped and non-ASCII strings, float and int
	// extremes. 0xff separates the strings drawn from the first input.
	f.Add([]byte("a<b>c&d\xffx\x01\x1fy\xff\u2028\xffcafé\xff\xfe\xff\xffnet-read>timer"), true,
		int64(math.MinInt64), int64(math.MaxInt64), 1e-7, 1e21, uint8(0xff))
	f.Add([]byte("timer\xffclose"), true, int64(-1), int64(0), 0.0, -0.5, uint8(0x15))
	f.Add([]byte(""), true, int64(7), int64(-7), -1e21, 1.0, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, structured bool, i1, i2 int64, f1, f2 float64, flags uint8) {
		var d journalDecoder
		if !structured {
			checkRawLine(t, &d, data)
			// Decode again with the scratch the first pass left behind.
			checkRawLine(t, &d, data)
			return
		}
		strs := bytes.Split(data, []byte{0xff})
		str := func(i int) string {
			if i < len(strs) {
				return string(strs[i])
			}
			return ""
		}
		var list []string
		if len(strs) > 3 {
			list = make([]string, len(strs)-3)
			for i := range list {
				list[i] = string(strs[i+3])
			}
		}
		finite := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return x
		}
		trial := TrialEntry{
			Type: "trial", Trial: int(i1), Seed: i2, Arm: int(i2 >> 32), ArmName: str(0),
			Manifested: flags&1 != 0, Note: str(1), Novelty: finite(f1), Admitted: flags&2 != 0,
			Duplicate: flags&4 != 0, Digest: str(2), Reward: finite(f2), ElapsedMS: i1 ^ i2,
			Schedule: list, Violations: int(flags >> 3), NewCoverage: -finite(f1 * f2),
		}
		cov := CoverageEntry{Type: "coverage", Trial: int(i2), Pairs: list, HBDigest: str(0), Tuples: list}
		ascii := true
		for _, c := range data {
			ascii = ascii && (c < 0x80 || c == 0xff)
		}
		for _, rec := range []any{trial, cov} {
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			got, want, accepted, err := decodeBoth(&d, line)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s:\ndecoded  %#v\njson     %#v", line, got, want)
			}
			if ascii && !accepted {
				t.Fatalf("an ASCII record left the scanner: %s", line)
			}
		}
	})
}

// decodeBoth decodes a marshaled record through the decoder LoadJournal
// uses and through json.Unmarshal, and reports whether the scanner
// accepted it.
func decodeBoth(d *journalDecoder, line []byte) (got, want any, accepted bool, err error) {
	if bytes.HasPrefix(line, []byte(`{"type":"trial"`)) {
		var w TrialEntry
		if err := json.Unmarshal(line, &w); err != nil {
			return nil, nil, false, err
		}
		g, err := d.trial(line)
		return g, w, d.scanTrial(line, new(TrialEntry)), err
	}
	var w CoverageEntry
	if err := json.Unmarshal(line, &w); err != nil {
		return nil, nil, false, err
	}
	g, err := d.coverage(line)
	return g, w, d.scanCoverage(line, new(CoverageEntry)), err
}

// checkRawLine requires any line the scanner accepts, as either record
// type, to decode equally and without error under json.Unmarshal.
func checkRawLine(t *testing.T, d *journalDecoder, line []byte) {
	var tg TrialEntry
	if d.scanTrial(line, &tg) {
		var tw TrialEntry
		if err := json.Unmarshal(line, &tw); err != nil {
			t.Fatalf("scanner accepted a trial line json.Unmarshal rejects (%v): %q", err, line)
		}
		if !reflect.DeepEqual(tg, tw) {
			t.Fatalf("%q:\nscanner %#v\njson    %#v", line, tg, tw)
		}
	}
	var cg CoverageEntry
	if d.scanCoverage(line, &cg) {
		var cw CoverageEntry
		if err := json.Unmarshal(line, &cw); err != nil {
			t.Fatalf("scanner accepted a coverage line json.Unmarshal rejects (%v): %q", err, line)
		}
		if !reflect.DeepEqual(cg, cw) {
			t.Fatalf("%q:\nscanner %#v\njson    %#v", line, cg, cw)
		}
	}
}
