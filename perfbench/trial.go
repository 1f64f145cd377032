package main

import (
	"fmt"
	"time"

	"nodefz/internal/bugs"
	"nodefz/internal/campaign"
	"nodefz/internal/core"
	"nodefz/internal/harness"
	"nodefz/internal/metrics"
	"nodefz/internal/oracle"
	"nodefz/internal/sched"
	"nodefz/internal/vclock"
)

// trial is one single-shot execution of a corpus app in a fresh virtual
// world, the unit of the Fig 6 experiment.
type trial struct {
	app   *bugs.App
	mode  harness.Mode
	fixed bool // the patched variant
	seed  int64
}

// fuzzed reports whether the trial counts toward manifest_frac: the buggy
// variant under a Node.fz scheduler (nodeNFZ or nodeFZ).
func (t trial) fuzzed() bool { return !t.fixed && t.mode != harness.ModeVanilla }

func (t trial) String() string {
	v := ""
	if t.fixed {
		v = "(fixed)"
	}
	return fmt.Sprintf("%s%s/%s/seed=%d", t.app.Abbr, v, t.mode, t.seed)
}

// unsoundFix lists patched variants left out of the sweep because they can
// manifest: SIO-novel's fix removes the leaked reconnect timer, but nodeFZ
// can still delay test 1's own first connection into test 2's window (about
// one seed in 1,200), which its detector reads as a stolen connection.
var unsoundFix = map[string]bool{"SIO-novel": true}

// block returns the i-th block of trials over apps: every app's buggy
// variant under nodeV, nodeNFZ and nodeFZ, then its patched variant under
// nodeFZ where one exists (and is not in unsoundFix), all with the block's
// seed.
func block(apps []*bugs.App, base int64, i int) []trial {
	seed := mix(base, i)
	var ts []trial
	for _, app := range apps {
		for _, m := range harness.Fig6Modes() {
			ts = append(ts, trial{app: app, mode: m, seed: seed})
		}
		if app.RunFixed != nil && !unsoundFix[app.Abbr] {
			ts = append(ts, trial{app: app, mode: harness.ModeFZ, fixed: true, seed: seed})
		}
	}
	return ts
}

// world builds the trial's fresh world: a virtual clock and the mode's
// scheduler.
func (t trial) world() bugs.RunConfig {
	return bugs.RunConfig{
		Seed:      t.seed,
		Scheduler: harness.SchedulerFor(t.mode, t.seed),
		Clock:     vclock.NewVirtual(),
	}
}

// exec runs the trial, turning a panic in the app or runtime into an
// error so one bad trial counts as failed instead of ending the run.
func (t trial) exec(rc bugs.RunConfig) (out bugs.Outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v: panic: %v", t, p)
		}
	}()
	run := t.app.Run
	if t.fixed {
		run = t.app.RunFixed
	}
	return run(rc), nil
}

// tally counts trial outcomes exactly, for the outcome metrics and the
// failure checks.
type tally struct {
	trials, fuzzed, fuzzedManifest int
	vanillaManifest, fzManifest    int
	fixedTrials, fixedManifest     int
	panics                         int
	perApp                         map[string]*[4]int // nodeV, nodeNFZ, nodeFZ, fixed manifestations
}

func (t *tally) add(tr trial, out bugs.Outcome, err error) {
	t.trials++
	if err != nil {
		t.panics++
		return
	}
	if t.perApp == nil {
		t.perApp = make(map[string]*[4]int)
	}
	row := t.perApp[tr.app.Abbr]
	if row == nil {
		row = new([4]int)
		t.perApp[tr.app.Abbr] = row
	}
	if tr.fuzzed() {
		t.fuzzed++
	}
	if tr.fixed {
		t.fixedTrials++
	}
	if !out.Manifested {
		return
	}
	switch {
	case tr.fixed:
		t.fixedManifest++
		row[3]++
	case tr.mode == harness.ModeVanilla:
		t.vanillaManifest++
		row[0]++
	case tr.mode == harness.ModeNFZ:
		t.fuzzedManifest++
		row[1]++
	default:
		t.fuzzedManifest++
		t.fzManifest++
		row[2]++
	}
}

// failures counts failed operations: panicked trials and manifesting
// patched variants.
func (t *tally) failures() int { return t.panics + t.fixedManifest }

// outcomeLine prints the exact per-app counts so two runs can be diffed.
func (t *tally) outcomeLine(apps []*bugs.App) string {
	s := fmt.Sprintf("outcomes (manifested nodeV/nodeNFZ/nodeFZ/fixed over %d trials, %d panics):", t.trials, t.panics)
	for _, a := range apps {
		if row := t.perApp[a.Abbr]; row != nil {
			s += fmt.Sprintf(" %s=%d/%d/%d/%d", a.Abbr, row[0], row[1], row[2], row[3])
		}
	}
	return s
}

// Overhead matrix: the same trials run plain and then with the schedule
// recorder, the happens-before oracle, coverage mining and a metrics
// registry added in turn. Each configuration's per-trial cost covers
// building the trial, running it, and harvesting what the added features
// produced, the way a campaign harvests them.
const (
	cfgPlain = iota
	cfgRecorder
	cfgOracle
	cfgCoverage
	cfgMetrics
	numConfigs
)

// counts are the exact per-trial work counts read from a trial's metrics
// registry and scheduler.
type counts struct {
	callbacks, iterations, poolTasks                  float64
	eventsDeferred, timersDeferred, deliveriesDelayed float64
	scheduleLen                                       float64
	trials                                            int
}

func (c *counts) add(reg *metrics.Registry, s any, scheduleLen int) {
	c.trials++
	c.callbacks += float64(reg.Gauge("loop.callbacks").Value())
	c.iterations += float64(reg.Gauge("loop.iterations").Value())
	c.poolTasks += float64(reg.Counter("pool.tasks_executed").Value())
	if sc, ok := s.(core.DecisionSource); ok {
		d := sc.Decisions()
		c.eventsDeferred += float64(d.EventsDeferred)
		c.timersDeferred += float64(d.TimersDeferred)
		c.deliveriesDelayed += float64(d.DeliveriesDelayed)
	}
	c.scheduleLen += float64(scheduleLen)
}

func (c *counts) report(r *report) {
	n := float64(c.trials)
	if n == 0 {
		n = 1
	}
	r.set("eventloop.callbacks", "count", c.callbacks/n)
	r.set("eventloop.iterations", "count", c.iterations/n)
	r.set("pool.tasks", "count", c.poolTasks/n)
	r.set("core.events_deferred", "count", c.eventsDeferred/n)
	r.set("core.timers_deferred", "count", c.timersDeferred/n)
	r.set("core.deliveries_delayed", "count", c.deliveriesDelayed/n)
	r.set("sched.schedule_len", "count", c.scheduleLen/n)
	r.linef("counts: per-trial means over %d trials", c.trials)
}

// matrixResult holds the overhead matrix's per-configuration timings and
// the spans and counts gathered on the way. Configurations are compared
// on CPU time, which host steal does not inflate.
type matrixResult struct {
	wallUS, cpuUS [numConfigs]float64 // summed per-trial µs
	n             [numConfigs]int
	trials        int
	typesUS       float64 // Recorder.Types + Truncate + Digest, summed
	typesN        int
	covUS         float64 // Tracker.Coverage, summed
	covN          int
	// plainByMode sums the plain configuration's buggy-variant trials by
	// mode, in CPU µs, for the Fig 8 overhead ratio.
	plainByMode map[harness.Mode]float64
	nByMode     map[harness.Mode]int
	counts      counts
	failures    int
	blocks      int
}

func (m *matrixResult) cpuPerTrial(cfg int) float64  { return m.cpuUS[cfg] / float64(m.n[cfg]) }
func (m *matrixResult) wallPerTrial(cfg int) float64 { return m.wallUS[cfg] / float64(m.n[cfg]) }

// runMatrix runs blocks of trials under every configuration, rotating the
// configuration order from block to block so drift in machine speed falls
// evenly on all of them. It runs for d and at least countBlocks blocks;
// counts come from the first countBlocks blocks, so they are exact for a
// seed.
func runMatrix(blockAt func(int) []trial, d time.Duration, countBlocks int) *matrixResult {
	m := &matrixResult{plainByMode: make(map[harness.Mode]float64), nByMode: make(map[harness.Mode]int)}
	deadline := time.Now().Add(d)
	for b := 0; b < countBlocks || time.Now().Before(deadline); b++ {
		for k := 0; k < numConfigs; k++ {
			cfg := (b + k) % numConfigs
			for _, t := range blockAt(b) {
				m.one(t, cfg, b < countBlocks)
			}
		}
		m.blocks++
	}
	return m
}

func (m *matrixResult) one(t trial, cfg int, count bool) {
	start := now()
	rc := t.world()
	var (
		rec     *sched.Recorder
		tracker *oracle.Tracker
		reg     *metrics.Registry
	)
	if cfg >= cfgRecorder {
		rec = sched.NewRecorder()
		rc.Recorder = rec
	}
	if cfg >= cfgOracle {
		tracker = oracle.New()
		rc.Oracle = tracker
	}
	if cfg >= cfgMetrics {
		reg = metrics.NewRegistry()
		rc.Metrics = reg
	}
	out, err := t.exec(rc)
	if err != nil || (t.fixed && out.Manifested) {
		m.failures++
		return
	}
	var scheduleLen int
	if rec != nil {
		t0 := time.Now()
		types := rec.Types()
		sched.DigestString(sched.Digest(sched.Truncate(types, campaign.DefaultScheduleTruncate)))
		m.typesUS += us(time.Since(t0))
		m.typesN++
		scheduleLen = len(types)
	}
	if tracker != nil {
		tracker.Reports()
	}
	if cfg >= cfgCoverage {
		t0 := time.Now()
		tracker.Coverage()
		m.covUS += us(time.Since(t0))
		m.covN++
	}
	if reg != nil && count {
		m.counts.add(reg, rc.Scheduler, scheduleLen)
	}
	d := start.to(now())
	m.wallUS[cfg] += us(d.wall)
	m.cpuUS[cfg] += us(d.cpu)
	m.n[cfg]++
	m.trials++
	if cfg == cfgPlain && !t.fixed {
		m.plainByMode[t.mode] += us(d.cpu)
		m.nByMode[t.mode]++
	}
}

// report sets the matrix's per-layer metrics: each feature's marginal CPU
// cost per trial, and the Fig 8 overhead ratio.
func (m *matrixResult) report(r *report) {
	r.set("sched.recorder_overhead_us", "us", m.cpuPerTrial(cfgRecorder)-m.cpuPerTrial(cfgPlain))
	r.set("oracle.overhead_us", "us", m.cpuPerTrial(cfgOracle)-m.cpuPerTrial(cfgRecorder))
	r.set("oracle.coverage_overhead_us", "us", m.cpuPerTrial(cfgCoverage)-m.cpuPerTrial(cfgOracle))
	r.set("metrics.overhead_us", "us", m.cpuPerTrial(cfgMetrics)-m.cpuPerTrial(cfgCoverage))
	fz := m.plainByMode[harness.ModeFZ] / float64(m.nByMode[harness.ModeFZ])
	v := m.plainByMode[harness.ModeVanilla] / float64(m.nByMode[harness.ModeVanilla])
	r.set("core.fuzz_overhead", "ratio", fz/v)
	r.linef("fuzz overhead: plain nodeFZ trial %.2f CPU µs over nodeV %.2f", fz, v)
	r.linef("overhead matrix: %d blocks; per-trial CPU µs plain %.2f, +recorder %.2f, +oracle %.2f, +coverage %.2f, +metrics %.2f",
		m.blocks, m.cpuPerTrial(cfgPlain), m.cpuPerTrial(cfgRecorder), m.cpuPerTrial(cfgOracle), m.cpuPerTrial(cfgCoverage), m.cpuPerTrial(cfgMetrics))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
