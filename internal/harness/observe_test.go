package harness

import (
	"testing"

	"nodefz/internal/bugs"
	"nodefz/internal/metrics"
	"nodefz/internal/oracle"
)

// TestObserversLeaveTrialUnchanged is the gate for "observers only
// observe": for every registry app under the three Figure 6 modes and four
// seeds, in fresh virtual worlds,
//
//   - a trial with a metrics registry equals the same trial without one:
//     decision trace, type schedule, virtual stamps, oracle reports,
//     coverage digest and outcome;
//   - a trial with the oracle tracker attached equals the same trial
//     without it: decision trace, type schedule, virtual stamps and outcome.
//
// The registry must also have something to show: every timer the loop ran
// left one "loop.lag_ns" sample.
func TestObserversLeaveTrialUnchanged(t *testing.T) {
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	for _, app := range bugs.All() {
		for _, mode := range Fig6Modes() {
			t.Run(app.Abbr+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				for s := 0; s < seeds; s++ {
					seed := int64(s + 1)
					plain := runFreshTrial(app, mode, seed, nil, oracle.New())
					if len(plain.types) == 0 {
						t.Fatal("trial recorded no callbacks — test is vacuous")
					}

					reg := metrics.NewRegistry()
					metered := runFreshTrial(app, mode, seed, reg, oracle.New())
					snap := reg.Snapshot()
					if lag, ran := snap.Histograms["loop.lag_ns"].Count, snap.Gauges["loop.timers_run"]; lag == 0 || lag != ran {
						t.Fatalf("seed %d: %d loop.lag_ns samples for %d timers run", seed, lag, ran)
					}
					metered.metrics = metrics.Snapshot{} // the one part a registry adds
					if part, a, b := fingerprintDiff(plain, metered); part != "" {
						t.Fatalf("seed %d: %s changed with metrics on:\noff: %+v\non:  %+v", seed, part, a, b)
					}

					blind := runFreshTrial(app, mode, seed, nil, nil)
					plain.violations, plain.coverage = blind.violations, blind.coverage // the parts a tracker adds
					if part, a, b := fingerprintDiff(blind, plain); part != "" {
						t.Fatalf("seed %d: %s changed with the oracle on:\noff: %+v\non:  %+v", seed, part, a, b)
					}
				}
			})
		}
	}
}
