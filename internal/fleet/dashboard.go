package fleet

import (
	"fmt"
	"strings"

	"nodefz/internal/metrics"
)

// Status snapshots the whole fleet as a metrics.FleetStatusRecord — the
// machine-readable dashboard row set. Safe to call between (not during)
// slices.
func (f *Fleet) Status() metrics.FleetStatusRecord {
	rec := metrics.FleetStatusRecord{
		Slices:   f.slices,
		Assigned: f.assigned,
		Budget:   f.cfg.GlobalTrials,
	}
	for i, u := range f.units {
		s := u.camp.Snapshot()
		workers := 0
		if i == f.lastPick {
			workers = f.cfg.Workers
		}
		rec.Campaigns = append(rec.Campaigns, metrics.FleetCampaignStatus{
			App:        u.spec.App.Abbr,
			Trials:     u.cap,
			Done:       s.Done,
			Manifested: s.Manifested,
			Violating:  s.Violating,
			Corpus:     s.CorpusLen,
			Yield:      u.yield,
			Slices:     u.slices,
			Workers:    workers,
		})
	}
	return rec
}

// emitDashboard pushes the current status to the configured sinks.
func (f *Fleet) emitDashboard() {
	if f.cfg.Dashboard == nil && f.cfg.DashboardJSONL == nil {
		return
	}
	rec := f.Status()
	_ = f.cfg.DashboardJSONL.Append(rec)
	if f.cfg.Dashboard != nil {
		fmt.Fprint(f.cfg.Dashboard, RenderStatus(rec))
	}
}

// RenderStatus renders one status record as the text dashboard: a header
// line plus one row per campaign, ordered by decayed yield (ties by spec
// order) so the targets currently holding the allocator's attention sit on
// top.
func RenderStatus(rec metrics.FleetStatusRecord) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: slice %d, %d/%d trials assigned\n", rec.Slices, rec.Assigned, rec.Budget)
	fmt.Fprintf(&b, "  %-11s %7s %6s %11s %10s %7s %7s %7s %8s\n",
		"app", "trials", "done", "manifested", "violating", "corpus", "yield", "slices", "workers")
	rows := make([]int, len(rec.Campaigns))
	for i := range rows {
		rows[i] = i
	}
	// Insertion sort by yield descending, stable in spec order.
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rec.Campaigns[rows[j]].Yield > rec.Campaigns[rows[j-1]].Yield; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
	for _, i := range rows {
		c := rec.Campaigns[i]
		fmt.Fprintf(&b, "  %-11s %7d %6d %11d %10d %7d %7.3f %7d %8d\n",
			c.App, c.Trials, c.Done, c.Manifested, c.Violating, c.Corpus, c.Yield, c.Slices, c.Workers)
	}
	return b.String()
}
