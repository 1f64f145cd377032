package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// The checkpoint journal is append-only JSONL: one self-describing record
// per line, distinguished by a "type" field. Four record types exist:
//
//   - "trial": one completed trial — everything resume needs to avoid
//     re-running it and to rebuild the bandit and corpus;
//   - "minimized": the delta-debugged perturbation set of a manifesting
//     trial;
//   - "coverage": the interleaving-coverage items a trial contributed that
//     the campaign had never seen (racing pairs, HB-edge-set digest,
//     adjacency tuples); resume replays them into the global coverage map
//     so rediscoveries earn no reward. Journals written before coverage
//     existed simply have none — resume from them starts the coverage map
//     empty, which is exactly what those campaigns knew;
//   - "checkpoint": a periodic summary (watermark, corpus size, arm stats),
//     redundant with the trial records but cheap to read for monitoring.
//
// Each record is flushed to the OS as it is appended, so a SIGKILL loses at
// most the line being written; the loader tolerates a torn final line.

// TrialEntry journals one completed trial.
type TrialEntry struct {
	Type       string   `json:"type"` // "trial"
	Trial      int      `json:"trial"`
	Seed       int64    `json:"seed"`
	Arm        int      `json:"arm"`
	ArmName    string   `json:"arm_name"`
	Manifested bool     `json:"manifested"`
	Note       string   `json:"note,omitempty"`
	Novelty    float64  `json:"novelty"`
	Admitted   bool     `json:"admitted"`
	Duplicate  bool     `json:"duplicate,omitempty"`
	Digest     string   `json:"digest"`
	Reward     float64  `json:"reward"`
	ElapsedMS  int64    `json:"elapsed_ms"`
	Schedule   []string `json:"schedule,omitempty"` // truncated; only when Admitted
	// Violations counts the trial's oracle reports (0 when the oracle is
	// off; absent in journals written before the oracle existed).
	Violations int `json:"violations,omitempty"`
	// NewCoverage is the trial's new-coverage reward fraction (0 when
	// coverage feedback is off; absent in pre-coverage journals).
	NewCoverage float64 `json:"new_coverage,omitempty"`
}

// CoverageEntry journals the never-seen-before coverage items one trial
// contributed. Written only when coverage feedback is on and the trial
// contributed something new.
type CoverageEntry struct {
	Type  string   `json:"type"` // "coverage"
	Trial int      `json:"trial"`
	Pairs []string `json:"pairs,omitempty"`
	// HBDigest is set only when the trial's HB-edge-set digest was new.
	HBDigest string   `json:"hb_digest,omitempty"`
	Tuples   []string `json:"tuples,omitempty"`
}

// MinimizedEntry journals one minimized trace.
type MinimizedEntry struct {
	Type       string         `json:"type"` // "minimized"
	Trial      int            `json:"trial"`
	Seed       int64          `json:"seed"`
	Original   int            `json:"original"`
	Minimal    int            `json:"minimal"`
	Points     []PerturbPoint `json:"points"`
	Replays    int            `json:"replays"`
	Reproduced bool           `json:"reproduced"`
}

// CheckpointEntry journals a periodic campaign summary.
type CheckpointEntry struct {
	Type       string    `json:"type"` // "checkpoint"
	Trials     int       `json:"trials"`
	Done       int       `json:"done"`
	Watermark  int       `json:"watermark"`
	Manifested int       `json:"manifested"`
	CorpusLen  int       `json:"corpus"`
	Arms       []ArmStat `json:"arms"`
	// Global coverage-map sizes at checkpoint time (omitted when coverage
	// feedback is off).
	CovPairs   int `json:"cov_pairs,omitempty"`
	CovDigests int `json:"cov_digests,omitempty"`
	CovTuples  int `json:"cov_tuples,omitempty"`
}

// Journal appends records to a checkpoint file, one JSON line at a time,
// flushing after every record. It is safe for concurrent use by trial
// workers.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	w   *bufio.Writer
	enc *json.Encoder // encodes straight into w; reuses its scratch across records
	err error
}

// OpenJournal opens path for appending (creating it if absent). With
// truncate, any existing content is discarded first — the fresh-campaign
// path; resume opens without truncation. On resume, a torn final line (the
// writer was killed mid-append) is truncated away first, so appended
// records never concatenate onto a partial one — the torn record was
// already lost the moment the kill landed.
func OpenJournal(path string, truncate bool) (*Journal, error) {
	if !truncate {
		if err := truncateTornTail(path); err != nil {
			return nil, err
		}
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if truncate {
		flags = os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	return &Journal{f: f, w: w, enc: json.NewEncoder(w)}, nil
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

// Append writes one record and flushes it. Errors are sticky.
func (j *Journal) Append(rec any) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	// Encode marshals into the encoder's pooled scratch and writes the
	// record plus trailing newline into the buffered writer — no per-record
	// output buffer. A marshal error writes nothing.
	if err := j.enc.Encode(rec); err != nil {
		j.err = err
		return err
	}
	if err := j.w.Flush(); err != nil {
		j.err = err
		return err
	}
	return nil
}

// Err returns the first append error, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close flushes and closes the file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	ferr := j.w.Flush()
	cerr := j.f.Close()
	if j.err != nil {
		return j.err
	}
	if ferr != nil {
		return ferr
	}
	return cerr
}

// JournalState is everything a resumed campaign rebuilds from the journal.
type JournalState struct {
	// Trials maps completed trial index -> its journal entry.
	Trials map[int]TrialEntry
	// Minimized holds the journaled minimizations, in journal order.
	Minimized []MinimizedEntry
	// Coverage holds the journaled coverage contributions, in journal
	// order (empty for pre-coverage journals).
	Coverage []CoverageEntry
	// TornTail is true when the final line failed to parse (the writer was
	// killed mid-append); the loader stops there and keeps what it has.
	TornTail bool
}

// Watermark returns the completed-trial watermark: the length of the
// contiguous prefix 0..k-1 of completed trials. Trials completed beyond a
// hole (possible when a budget stop or kill interrupts out-of-order
// workers) sit above the watermark but are still skipped on resume.
func (s *JournalState) Watermark() int {
	w := 0
	for {
		if _, ok := s.Trials[w]; !ok {
			return w
		}
		w++
	}
}

// LoadJournal reads a checkpoint journal. A missing file yields an empty
// state and no error (resuming a campaign that never started is a fresh
// start). A torn final line is tolerated; a malformed line earlier in the
// file is an error, because records after it may silently be lost.
func LoadJournal(path string) (*JournalState, error) {
	st := &JournalState{Trials: make(map[int]TrialEntry)}
	torn, err := ScanJournal(path, "campaign", func(typ string, line []byte) (bool, error) {
		switch typ {
		case "trial":
			var e TrialEntry
			if err := json.Unmarshal(line, &e); err != nil {
				return true, err
			}
			st.Trials[e.Trial] = e
		case "minimized":
			var e MinimizedEntry
			if err := json.Unmarshal(line, &e); err != nil {
				return true, err
			}
			st.Minimized = append(st.Minimized, e)
		case "coverage":
			var e CoverageEntry
			if err := json.Unmarshal(line, &e); err != nil {
				return true, err
			}
			st.Coverage = append(st.Coverage, e)
		case "checkpoint":
			// Summaries are derivable from the trial records; skip.
		default:
			return false, nil
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	st.TornTail = torn
	return st, nil
}

// ScanJournal reads the JSONL journal at path — a campaign's or a fleet's —
// one record at a time, tolerating a torn tail: record gets each non-blank
// line with its "type" field and reports whether it knows the type and
// whether the line failed to decode. A missing file is an empty journal. A
// line that fails to parse is taken for the torn final line a killed writer
// leaves behind (torn is then true); a malformed line with records after
// it, or a record of unknown type, is an error, prefixed with owner.
func ScanJournal(path, owner string, record func(typ string, line []byte) (known bool, err error)) (torn bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
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
		var kind struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &kind); err != nil {
			// Possibly the torn final line; fail only if more records
			// follow.
			torn = true
			continue
		}
		known, err := record(kind.Type, line)
		if !known {
			return false, fmt.Errorf("%s: journal %s line %d: unknown record type %q", owner, path, lineNo, kind.Type)
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
