package oracle

// TrialViolation is the JSONL envelope for a report emitted by a harness
// trial: the violation plus which trial produced it. The stream stays a
// deterministic function of the seed under a virtual clock — no wall-clock
// fields.
type TrialViolation struct {
	Bug   string `json:"bug"`
	Mode  string `json:"mode,omitempty"`
	Trial int    `json:"trial"`
	Seed  int64  `json:"seed"`
	Report
}

// Violations wraps one trial's reports for a JSON Lines stream, one
// TrialViolation per report, in detection order.
func Violations(bug, mode string, trial int, seed int64, reports []Report) []TrialViolation {
	if len(reports) == 0 {
		return nil
	}
	out := make([]TrialViolation, len(reports))
	for i, r := range reports {
		out[i] = TrialViolation{Bug: bug, Mode: mode, Trial: trial, Seed: seed, Report: r}
	}
	return out
}
