package harness

import (
	"nodefz/internal/bugs"
	"nodefz/internal/core"
	"nodefz/internal/eventloop"
	"nodefz/internal/jsonl"
	"nodefz/internal/metrics"
)

// TrialObserver receives one metrics record per completed trial. The
// harness runs trials in parallel, so observers must be safe for concurrent
// calls (a jsonl.Writer is).
type TrialObserver func(metrics.TrialRecord)

// JSONLObserver adapts a metrics JSON Lines writer into a TrialObserver.
// Write errors are sticky inside the writer; its Close reports them after
// the experiment.
func JSONLObserver(w *jsonl.Writer[metrics.TrialRecord]) TrialObserver {
	return func(rec metrics.TrialRecord) { _ = w.Append(rec) }
}

// CollectTrial folds the scheduler's decision counters into the trial's
// registry (as "sched.*" gauges, next to the loop's "loop.*" and the pool's
// "pool.*" instruments) and assembles the exported record.
func CollectTrial(bug string, mode Mode, seed int64, trial int, out bugs.Outcome,
	reg *metrics.Registry, s eventloop.Scheduler, schedule []string) metrics.TrialRecord {
	if d, ok := core.DecisionsOf(s); ok {
		d.FoldInto(reg)
	}
	return metrics.TrialRecord{
		Bug:        bug,
		Mode:       mode.String(),
		Seed:       seed,
		Trial:      trial,
		Manifested: out.Manifested,
		Note:       out.Note,
		Metrics:    reg.Snapshot(),
		Schedule:   schedule,
	}
}
