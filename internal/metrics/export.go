package metrics

// TrialRecord is one line of the JSONL metrics stream: the identity of a
// trial, its outcome, the full metrics snapshot (loop phases, pool,
// scheduler decisions, lag), and optionally the type schedule the trial
// executed (§5.3) so schedule-space statistics can be recomputed offline.
type TrialRecord struct {
	Bug        string   `json:"bug,omitempty"`
	Mode       string   `json:"mode"`
	Seed       int64    `json:"seed"`
	Trial      int      `json:"trial"`
	Manifested bool     `json:"manifested"`
	Note       string   `json:"note,omitempty"`
	Metrics    Snapshot `json:"metrics"`
	Schedule   []string `json:"schedule,omitempty"`
	// NewCoverage is the trial's new-interleaving-coverage fraction when
	// the campaign runs with coverage feedback (0 / absent otherwise).
	NewCoverage float64 `json:"new_coverage,omitempty"`
}
