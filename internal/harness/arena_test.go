package harness

import (
	"maps"
	"reflect"
	"strings"
	"testing"
	"time"

	"nodefz/internal/bugs"
	"nodefz/internal/core"
	"nodefz/internal/metrics"
	"nodefz/internal/oracle"
	"nodefz/internal/sched"
	"nodefz/internal/vclock"
)

// trialFingerprint is everything externally observable about one trial that
// the arena contract promises to preserve bit-for-bit: the scheduler
// decision trace, the recorded type schedule with its virtual timestamps,
// the oracle's violation reports, the interleaving-coverage digest, the
// outcome and, when the trial collects metrics, its deterministic registry
// values.
type trialFingerprint struct {
	trace      *core.Trace
	types      []string
	stamps     []time.Time
	violations []oracle.Report
	coverage   oracle.CoverageDigest
	outcome    bugs.Outcome
	metrics    metrics.Snapshot
}

func fingerprint(out bugs.Outcome, recording *core.RecordingScheduler, rec *sched.Recorder, tracker *oracle.Tracker, reg *metrics.Registry) trialFingerprint {
	entries := rec.Entries()
	stamps := make([]time.Time, len(entries))
	for i, e := range entries {
		stamps[i] = e.At
	}
	return trialFingerprint{
		trace:      recording.Trace(),
		types:      rec.Types(),
		stamps:     stamps,
		violations: tracker.Reports(),
		coverage:   tracker.Coverage(),
		outcome:    out,
		metrics:    deterministicMetrics(reg, recording),
	}
}

// fingerprintDiff names the first part of the fingerprint in which b
// differs from a, with both values; "" when they match.
func fingerprintDiff(a, b trialFingerprint) (part string, av, bv any) {
	for _, p := range []struct {
		name   string
		av, bv any
	}{
		{"decision trace", a.trace, b.trace},
		{"type schedule", a.types, b.types},
		{"virtual timestamps", a.stamps, b.stamps},
		{"oracle reports", a.violations, b.violations},
		{"coverage digest", a.coverage, b.coverage},
		{"outcome", a.outcome, b.outcome},
		{"metrics", a.metrics, b.metrics},
	} {
		if !reflect.DeepEqual(p.av, p.bv) {
			return p.name, p.av, p.bv
		}
	}
	return "", nil, nil
}

// deterministicMetrics folds the scheduler's decision counters into reg, the
// way a campaign does before it exports a trial, and returns the values a
// virtual trial fixes exactly: every counter, gauge and histogram except the
// wall-clock durations (names ending in "ns"). The zero Snapshot when reg is
// nil.
func deterministicMetrics(reg *metrics.Registry, recording *core.RecordingScheduler) metrics.Snapshot {
	if reg == nil {
		return metrics.Snapshot{}
	}
	if d, ok := core.DecisionsOf(recording); ok {
		d.FoldInto(reg)
	}
	snap := reg.Snapshot()
	maps.DeleteFunc(snap.Counters, func(name string, _ int64) bool { return strings.HasSuffix(name, "ns") })
	maps.DeleteFunc(snap.Gauges, func(name string, _ int64) bool { return strings.HasSuffix(name, "ns") })
	maps.DeleteFunc(snap.Histograms, func(name string, _ metrics.HistogramSnapshot) bool { return strings.HasSuffix(name, "ns") })
	return snap
}

// runFreshTrial is the build-everything path: a fresh virtual clock, loop,
// pool, and network per trial, observed by reg and tracker (either may be
// nil).
func runFreshTrial(app *bugs.App, mode Mode, seed int64, reg *metrics.Registry, tracker *oracle.Tracker) trialFingerprint {
	recording := core.NewRecording(SchedulerFor(mode, seed))
	rec := sched.NewRecorder()
	out := app.Run(bugs.RunConfig{
		Seed:      seed,
		Scheduler: recording,
		Recorder:  rec,
		Metrics:   reg,
		Clock:     vclock.NewVirtual(),
		Oracle:    tracker,
	})
	return fingerprint(out, recording, rec, tracker, reg)
}

// arenaWorld mirrors the campaign's per-worker world: one arena plus the
// collaborators reset in lockstep with it.
type arenaWorld struct {
	arena     *bugs.Arena
	recording *core.RecordingScheduler
	rec       *sched.Recorder
	tracker   *oracle.Tracker
}

// newArenaWorld builds the world; withMetrics gives its arena a registry, as
// a campaign with metrics export does.
func newArenaWorld(mode Mode, seed int64, withMetrics bool) *arenaWorld {
	return &arenaWorld{
		arena:     bugs.NewArena(withMetrics),
		recording: core.NewRecording(SchedulerFor(mode, seed)),
		rec:       sched.NewRecorder(),
		tracker:   oracle.New(),
	}
}

// reseed re-arms the world's inner scheduler for the next trial, the way
// campaign.runTrial does via Scheduler.Reseed.
func (w *arenaWorld) reseed(mode Mode, seed int64) {
	cs, ok := w.recording.Inner().(*core.Scheduler)
	if !ok {
		return // vanilla: stateless
	}
	switch mode {
	case ModeFZ:
		cs.Reseed(core.StandardParams(), seed)
	case ModeNFZ:
		cs.Reseed(core.NoFuzzParams(), 0)
	case ModeGuided:
		cs.Reseed(core.GuidedTimerParams(), seed)
	}
}

func (w *arenaWorld) run(app *bugs.App, mode Mode, seed int64) trialFingerprint {
	w.reseed(mode, seed)
	w.recording.Reset()
	w.rec.Reset()
	w.tracker.Reset()
	out := app.Run(w.arena.Begin(bugs.RunConfig{
		Seed:      seed,
		Scheduler: w.recording,
		Recorder:  w.rec,
		Oracle:    w.tracker,
	}))
	return fingerprint(out, w.recording, w.rec, w.tracker, w.arena.Registry())
}

// compareWorlds runs app at seed in a fresh world and in w, and fails the
// test at the first part of the fingerprint that differs.
func compareWorlds(t *testing.T, w *arenaWorld, app *bugs.App, mode Mode, seed int64) {
	t.Helper()
	var reg *metrics.Registry
	if w.arena.Registry() != nil {
		reg = metrics.NewRegistry()
	}
	fresh := runFreshTrial(app, mode, seed, reg, oracle.New())
	if len(fresh.types) == 0 {
		t.Fatal("trial recorded no callbacks — test is vacuous")
	}
	if reg != nil && fresh.metrics.Gauges["loop.callbacks"] == 0 {
		t.Fatal("registry counted no callbacks — metrics comparison is vacuous")
	}
	reused := w.run(app, mode, seed)
	if part, a, b := fingerprintDiff(fresh, reused); part != "" {
		t.Fatalf("%s seed %d: %s diverged between fresh and arena worlds:\nfresh: %+v\narena: %+v",
			app.Abbr, seed, part, a, b)
	}
}

// metricsModes are the two ways a world runs: without metrics, and with a
// registry; the suffix ends the latter's subtest names.
var metricsModes = []struct {
	suffix string
	on     bool
}{{"", false}, {"/metrics", true}}

// TestArenaResetEquivalence is the tentpole's correctness gate: for a
// spread of corpus apps (network-heavy, filesystem-heavy, promise-heavy)
// across all three Figure-6 modes, with metrics off and on, and ten seeds
// each, a trial run in a reused arena world must be bit-identical to the
// same trial in a freshly built world — same decision trace, same type
// schedule, same virtual timestamps, same oracle reports, same coverage
// digest, same deterministic metrics. The arena world is shared across all
// ten seeds of a cell, so trial k runs in a world that has already been
// reset k times; any state leaking through a reset shows up as a
// divergence at some seed.
func TestArenaResetEquivalence(t *testing.T) {
	apps := []string{"SIO", "MKD", "KUE", "MGS", "RST-prom"}
	seeds := 10
	if testing.Short() {
		apps = []string{"SIO", "MKD"}
		seeds = 3
	}
	for _, abbr := range apps {
		app := bugs.ByAbbr(abbr)
		if app == nil {
			t.Fatalf("unknown app %q", abbr)
		}
		for _, mode := range Fig6Modes() {
			for _, mm := range metricsModes {
				t.Run(abbr+"/"+mode.String()+mm.suffix, func(t *testing.T) {
					t.Parallel()
					w := newArenaWorld(mode, 1, mm.on)
					for s := 0; s < seeds; s++ {
						compareWorlds(t, w, app, mode, int64(100+s))
					}
				})
			}
		}
	}
}

// TestArenaTrialAllocs pins the per-trial allocation budgets of the trial
// paths campaigns and sweeps run: a single-loop and a cluster trial reused
// through one arena, and a single-loop trial in a freshly built virtual
// world. A fresh SIO world costs more than its arena reuse, and a cluster
// world several loops' worth more; each budget keeps its path from quietly
// re-growing per-trial construction.
func TestArenaTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow state allocates on the measured path")
	}
	cases := []struct {
		app    string
		arena  bool
		budget float64 // measured steady state plus ~10% for map rehash jitter
	}{
		{"SIO", true, 120},        // ~113
		{"REP-elect", true, 2000}, // ~1,825
		{"SIO", false, 185},       // ~169
	}
	for _, c := range cases {
		name := c.app + "/fresh"
		if c.arena {
			name = c.app + "/arena"
		}
		t.Run(name, func(t *testing.T) {
			app := bugs.ByAbbr(c.app)
			w := newArenaWorld(ModeFZ, 1, false)
			// The trial alone — reseed, reset, run — without the fingerprint
			// snapshots (Trace/Reports/Coverage clone into fresh memory by
			// design; the campaign pays that per-result, not per-reset).
			trial := func(seed int64) {
				w.reseed(ModeFZ, seed)
				w.recording.Reset()
				w.rec.Reset()
				w.tracker.Reset()
				cfg := bugs.RunConfig{
					Seed:      seed,
					Scheduler: w.recording,
					Recorder:  w.rec,
					Oracle:    w.tracker,
				}
				if c.arena {
					cfg = w.arena.Begin(cfg)
				} else {
					cfg.Clock = vclock.NewVirtual()
				}
				app.Run(cfg)
			}
			// First run builds the world; the next two let freelists and
			// scratch buffers grow to their high-water marks.
			for s := int64(1); s <= 3; s++ {
				trial(s)
			}
			seed := int64(4)
			allocs := testing.AllocsPerRun(10, func() {
				trial(seed)
				seed++
			})
			t.Logf("%.0f allocs per trial", allocs)
			if allocs > c.budget {
				t.Fatalf("trial allocates %.0f objects, budget %.0f", allocs, c.budget)
			}
		})
	}
}
