package harness

import (
	"runtime"

	"nodefz/internal/bugs"
	"nodefz/internal/campaign"
	"nodefz/internal/core"
	"nodefz/internal/eventloop"
	"nodefz/internal/metrics"
	"nodefz/internal/sched"
)

// Rate is a manifestation rate over a batch of trials.
type Rate struct {
	Manifested int
	Trials     int
	// FirstNote is the detector's description from the first manifesting
	// trial, if any.
	FirstNote string
	// Decisions aggregates the scheduler decision counters over all trials
	// (zero under decision-free schedulers like nodeV).
	Decisions core.DecisionCounters
}

// Fraction is Manifested/Trials, 0 for an empty batch.
func (r Rate) Fraction() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Manifested) / float64(r.Trials)
}

// ReproRate measures how often app's buggy variant manifests in trials runs
// under mode, with per-trial seeds baseSeed, baseSeed+1, ... Trials run in
// parallel (each owns its loop, network, and scheduler).
func ReproRate(app *bugs.App, mode Mode, trials int, baseSeed int64) Rate {
	return ReproRateObserved(app, mode, trials, baseSeed, nil)
}

// ReproRateObserved is ReproRate with a per-trial metrics observer: each
// trial runs with its own metrics registry and a schedule recorder, and obs
// receives the assembled record. A nil obs skips all per-trial
// instrumentation beyond the decision counters.
func ReproRateObserved(app *bugs.App, mode Mode, trials int, baseSeed int64, obs TrialObserver) Rate {
	return measure(app.Run, func(seed int64) eventloop.Scheduler {
		return SchedulerFor(mode, seed)
	}, trials, baseSeed, trialMeta{bug: app.Abbr, mode: mode, obs: obs})
}

// FixedRate measures the patched variant the same way; it should be zero
// for every bug whose fix is known.
func FixedRate(app *bugs.App, mode Mode, trials int, baseSeed int64) Rate {
	if app.RunFixed == nil {
		return Rate{}
	}
	return measure(app.RunFixed, func(seed int64) eventloop.Scheduler {
		return SchedulerFor(mode, seed)
	}, trials, baseSeed, trialMeta{bug: app.Abbr, mode: mode})
}

func mustApp(abbr string) *bugs.App {
	app := bugs.ByAbbr(abbr)
	if app == nil {
		panic("harness: unknown bug " + abbr)
	}
	return app
}

// trialMeta labels a measure batch for metrics export.
type trialMeta struct {
	bug  string
	mode Mode
	obs  TrialObserver
}

// measure runs trials through the campaign trial executor with
// workers = GOMAXPROCS. Per-trial seeds are baseSeed+i regardless of worker
// count or interleaving, so the reported rates are bit-identical to the
// historical sequential path for a fixed baseSeed (regression-tested in
// TestMeasureWorkerCountInvariant).
func measure(run func(bugs.RunConfig) bugs.Outcome, mkSched func(seed int64) eventloop.Scheduler, trials int, baseSeed int64, meta trialMeta) Rate {
	return measureWorkers(run, mkSched, trials, baseSeed, meta, runtime.GOMAXPROCS(0))
}

func measureWorkers(run func(bugs.RunConfig) bugs.Outcome, mkSched func(seed int64) eventloop.Scheduler, trials int, baseSeed int64, meta trialMeta, workers int) Rate {
	if trials <= 0 {
		return Rate{}
	}
	type result struct {
		manifested bool
		note       string
		decisions  core.DecisionCounters
	}
	results := make([]result, trials)

	campaign.Executor{Workers: workers}.Run(trials, func(i int) {
		seed := baseSeed + int64(i)
		s := mkSched(seed)
		cfg := bugs.RunConfig{Seed: seed, Scheduler: s, Clock: bugs.TrialClock()}
		var reg *metrics.Registry
		var rec *sched.Recorder
		if meta.obs != nil {
			reg = metrics.NewRegistry()
			rec = sched.NewRecorder()
			cfg.Metrics = reg
			cfg.Recorder = rec
		}
		out := run(cfg)
		d, _ := core.DecisionsOf(s)
		results[i] = result{manifested: out.Manifested, note: out.Note, decisions: d}
		if meta.obs != nil {
			meta.obs(CollectTrial(meta.bug, meta.mode, seed, i, out, reg, s, rec.Types()))
		}
	})

	r := Rate{Trials: trials}
	for _, res := range results {
		if res.manifested {
			r.Manifested++
			if r.FirstNote == "" {
				r.FirstNote = res.note
			}
		}
		r.Decisions = r.Decisions.Add(res.decisions)
	}
	return r
}
