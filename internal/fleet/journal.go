package fleet

import (
	"encoding/json"

	"nodefz/internal/jsonl"
)

// The fleet journal is append-only JSONL, one self-describing record per
// line, opened with campaign.OpenJournal like the per-campaign journals: one
// write per record, a torn final line tolerated by jsonl.Scan on load and
// truncated on reopen. Two record types exist:
//
//   - "slice": one allocation decision and its outcome — which campaign got
//     the slice, the trial range, and the range's yield counters. Resume
//     replays these in order to restore the allocator exactly: per-campaign
//     cursors, slice counts, and decayed yields, plus the global assigned
//     count and the decision index that seeds the allocator's stateless
//     RNG. Because a slice's yield counters cover every completed trial in
//     the range — including trials restored from the child journal rather
//     than re-run — a fleet killed mid-slice regenerates, after resume, the
//     exact record the uninterrupted fleet would have written.
//   - "fleet-checkpoint": a periodic summary of the allocator watermarks,
//     redundant with the slice records but cheap to read for monitoring,
//     and the record the bit-identical resume gate compares.
//
// Child campaigns journal their own trials to <dir>/<abbr>.jsonl via the
// existing campaign checkpoint machinery; the fleet journal holds only the
// allocator's view.

// SliceRecord journals one allocation decision and the outcome of the trial
// slice it granted.
type SliceRecord struct {
	Type string `json:"type"` // "slice"
	// Slice is the decision index (0-based, fleet-wide).
	Slice int `json:"slice"`
	// App names the campaign that received the slice.
	App string `json:"app"`
	// From/To bound the granted trial range [From, To).
	From int `json:"from"`
	To   int `json:"to"`
	// Ran counts freshly executed trials; Skipped counts range trials that
	// were already complete (non-zero only on the slice a resume re-runs);
	// Errored counts panicking trials (re-run on the next resume).
	Ran     int `json:"ran"`
	Skipped int `json:"skipped,omitempty"`
	Errored int `json:"errored,omitempty"`
	// Yield counters over every completed trial in the range.
	Admitted   int `json:"admitted"`
	Violating  int `json:"violating"`
	NewCov     int `json:"new_cov"`
	Manifested int `json:"manifested"`
	// Yield is the slice's marginal-yield signal as fed to the allocator's
	// EMA: (admitted + violating + new_cov) / (to - from), scaled by
	// Config.ManifestDiscount when the campaign has already manifested.
	Yield float64 `json:"yield"`
	// Workers is the executor width the slice ran with.
	Workers int `json:"workers"`
	// Explore marks an epsilon-exploration pick (as opposed to a greedy
	// argmax or cold-start pick).
	Explore bool `json:"explore,omitempty"`
}

// CampaignMark is one campaign's allocator watermark inside a checkpoint.
type CampaignMark struct {
	App string `json:"app"`
	// Cursor is the next trial index the allocator would assign.
	Cursor int `json:"cursor"`
	// Slices counts slices granted so far; Yield is the decayed recent
	// yield the allocator currently credits the campaign with.
	Slices int     `json:"slices"`
	Yield  float64 `json:"yield"`
	// Done/Manifested/Corpus mirror the child campaign's own state.
	Done       int `json:"done"`
	Manifested int `json:"manifested"`
	Corpus     int `json:"corpus"`
}

// CheckpointRecord journals a periodic fleet summary: the allocator's
// cumulative watermarks across every campaign.
type CheckpointRecord struct {
	Type      string         `json:"type"` // "fleet-checkpoint"
	Slices    int            `json:"slices"`
	Assigned  int            `json:"assigned"`
	Budget    int            `json:"budget"`
	Campaigns []CampaignMark `json:"campaigns"`
}

// journalState is what a resumed fleet rebuilds from its journal.
type journalState struct {
	Slices []SliceRecord
	// TornTail is true when the final line failed to parse (the writer was
	// killed mid-append); the loader stops there and keeps what it has.
	TornTail bool
}

// loadJournal reads a fleet journal. A missing file yields an empty state
// (resuming a fleet that never started is a fresh start). A torn final line
// is tolerated; a malformed line earlier in the file is an error.
func loadJournal(path string) (*journalState, error) {
	st := &journalState{}
	torn, err := jsonl.Scan(path, "fleet", func(typ string, line []byte) (bool, error) {
		switch typ {
		case "slice":
			var rec SliceRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return true, err
			}
			st.Slices = append(st.Slices, rec)
		case "fleet-checkpoint":
			// Summaries are derivable from the slice records; skip.
			return true, jsonl.Validate(line)
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
