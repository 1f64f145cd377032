package metrics

import "io"

// FleetCampaignStatus is one campaign's row in a fleet status record: the
// per-campaign columns of the live fleet dashboard.
type FleetCampaignStatus struct {
	// App is the bug application's abbreviation ("SIO", "RST-prom", ...).
	App string `json:"app"`
	// Trials is the campaign's per-campaign trial cap.
	Trials int `json:"trials"`
	// Done counts completed trials (resumed plus fresh).
	Done int `json:"done"`
	// Manifested counts manifesting trials.
	Manifested int `json:"manifested"`
	// Violating counts trials with at least one oracle report.
	Violating int `json:"violating,omitempty"`
	// Corpus is the campaign's current corpus size.
	Corpus int `json:"corpus"`
	// Yield is the allocator's decayed recent-yield estimate for the
	// campaign — the number it is competing on.
	Yield float64 `json:"yield"`
	// Slices counts trial slices allocated to the campaign so far.
	Slices int `json:"slices"`
	// Workers is the number of workers currently allocated to the campaign
	// (the fleet runs one slice at a time, so at most one row is non-zero).
	Workers int `json:"workers,omitempty"`
}

// FleetStatusRecord is one line of the fleet dashboard JSONL stream: a
// point-in-time snapshot of the whole fleet, emitted periodically and at
// the end of a run.
type FleetStatusRecord struct {
	// Slices counts allocation decisions made so far.
	Slices int `json:"slices"`
	// Assigned counts trials assigned to slices so far; Budget is the
	// fleet's global trial budget.
	Assigned int `json:"assigned"`
	Budget   int `json:"budget"`
	// Campaigns holds one row per campaign, in fleet spec order.
	Campaigns []FleetCampaignStatus `json:"campaigns"`
}

// FleetStatusWriter streams FleetStatusRecords as JSON Lines — the
// machine-readable half of the fleet dashboard. Safe for concurrent use.
type FleetStatusWriter struct {
	lw lineWriter[FleetStatusRecord]
}

// NewFleetStatusWriter wraps w. The writer does not close w.
func NewFleetStatusWriter(w io.Writer) *FleetStatusWriter {
	return &FleetStatusWriter{lw: newLineWriter[FleetStatusRecord](w, false)}
}

// Write appends one record. After the first error every call returns it
// without writing further.
func (j *FleetStatusWriter) Write(rec FleetStatusRecord) error { return j.lw.write(rec) }

// Count reports the number of records written so far.
func (j *FleetStatusWriter) Count() int { return j.lw.count() }

// Err returns the first write error, if any.
func (j *FleetStatusWriter) Err() error { return j.lw.firstErr() }
