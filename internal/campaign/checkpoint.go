package campaign

import (
	"encoding/json"

	"nodefz/internal/jsonl"
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
// Each record is encoded straight to the file in one write as it is
// appended, so a SIGKILL loses at most the line being written; the loader
// tolerates a torn final line.

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

// Journal appends records to a checkpoint file, write-through. It is safe
// for concurrent use by trial workers.
type Journal = jsonl.Writer[any]

// OpenJournal opens path for appending. With truncate it creates or
// truncates the file: the fresh-campaign path. Without it (resume), it
// creates the file if absent and first truncates away a torn final line.
func OpenJournal(path string, truncate bool) (*Journal, error) {
	if truncate {
		return jsonl.Create[any](path, false)
	}
	return jsonl.Reopen[any](path)
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
	torn, err := jsonl.Scan(path, "campaign", func(typ string, line []byte) (bool, error) {
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
	// A trial journals its trial, coverage and minimized records in one
	// append, but a kill can land between the lines. NewCoverage > 0 holds
	// exactly when a coverage record follows the trial record, so a trial
	// without its coverage record is not done: resume re-runs it, and the
	// re-run journals all of its records again.
	covered := make(map[int]bool, len(st.Coverage))
	for _, e := range st.Coverage {
		covered[e.Trial] = true
	}
	for i, e := range st.Trials {
		if e.NewCoverage > 0 && !covered[i] {
			delete(st.Trials, i)
		}
	}
	return st, nil
}
