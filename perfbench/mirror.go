package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"nodefz/internal/bugs"
	"nodefz/internal/campaign"
	"nodefz/internal/core"
	"nodefz/internal/oracle"
	"nodefz/internal/sched"
	"nodefz/internal/vclock"
)

// checkpointEvery mirrors the campaign's cadence of summary records: one
// per 16 completed trials.
const checkpointEvery = 16

// Span names, in ledger order. Each is the host time of one layer's calls
// within a trial.
var spanNames = []string{
	"campaign.bandit", // UCB.Select + UCB.Update
	"campaign.reset",  // Scheduler.Reseed + Recording, Recorder and Tracker Reset
	"bugs.begin",      // Arena.Begin
	"bugs.run",        // App.Run
	"sched.types",     // Recorder.Types + Truncate + Digest
	"oracle.coverage", // Tracker.Coverage
	"campaign.admit",  // Corpus.AdmitWithCoverage
	"campaign.journal",
	"campaign.minimize",
}

// ledger accumulates the mirror's spans over its trials, and the exact work
// counts of a separate, untimed counting run.
type ledger struct {
	ran                 int // every mirror trial, counting runs included
	trials, errored     int
	totalUS             float64            // whole-trial host µs
	span                map[string]float64 // summed µs by span name
	admit               []float64          // per-trial admission µs
	admitted, duplicate int
	replays             []float64 // resume replay seconds
	minimizeMS          []float64
	minimizeReplays     []float64
	journalBytes        int64
	journalTrials       int
	counts              counts
}

func newLedger() *ledger { return &ledger{span: make(map[string]float64)} }

func (l *ledger) spansUS() float64 {
	var sum float64
	for _, n := range spanNames {
		sum += l.span[n]
	}
	return sum
}

func (l *ledger) report(r *report) {
	n := float64(l.trials)
	r.set("bugs.run_us", "us", l.span["bugs.run"]/n)
	r.set("bugs.begin_us", "us", l.span["bugs.begin"]/n)
	r.set("campaign.reset_us", "us", l.span["campaign.reset"]/n)
	r.set("campaign.admit_us", "us", l.span["campaign.admit"]/n)
	r.set("campaign.admit_us_p50", "us", percentile(l.admit, 0.50))
	r.set("campaign.admit_us_p99", "us", percentile(l.admit, 0.99))
	r.set("campaign.admitted_frac", "frac", float64(l.admitted)/n)
	r.set("campaign.duplicate_frac", "frac", float64(l.duplicate)/n)
	r.set("oracle.coverage_us", "us", l.span["oracle.coverage"]/n)
	r.set("sched.types_us", "us", l.span["sched.types"]/n)
	r.set("campaign.bandit_us", "us", l.span["campaign.bandit"]/n)
	r.set("campaign.journal_us", "us", l.span["campaign.journal"]/n)
	r.set("campaign.journal_bytes_per_trial", "B", float64(l.journalBytes)/float64(l.journalTrials))
	r.set("campaign.replay_s", "s", mean(l.replays))
	r.set("campaign.minimize_ms", "ms", mean(l.minimizeMS))
	r.set("campaign.minimize_replays", "count", mean(l.minimizeReplays))
	l.counts.report(r)
	r.linef("ledger: %d mirror trials; per-trial µs by span:", l.trials)
	for _, name := range spanNames {
		r.linef("  %-20s %10.2f", name, l.span[name]/n)
	}
	r.linef("admission: %d samples; resume replays: %d; minimizations: %d", len(l.admit), len(l.replays), len(l.minimizeMS))
}

// noCampaignLayers sets the campaign-layer metrics for a workload that runs
// no campaign: those layers do no work there.
func noCampaignLayers(r *report) {
	for _, name := range []string{"campaign.reset_us", "campaign.admit_us", "campaign.admit_us_p50",
		"campaign.admit_us_p99", "campaign.bandit_us", "campaign.journal_us"} {
		r.set(name, "us", 0)
	}
	r.set("campaign.admitted_frac", "frac", 0)
	r.set("campaign.duplicate_frac", "frac", 0)
	r.set("campaign.journal_bytes_per_trial", "B", 0)
	r.set("campaign.replay_s", "s", 0)
	r.set("campaign.minimize_ms", "ms", 0)
	r.set("campaign.minimize_replays", "count", 0)
	r.linef("campaign layers: not exercised (no corpus, bandit or journal)")
}

// mirror re-enacts campaign.Campaign's trial loop from outside, through
// the same exported pieces (UCB, core.Scheduler, sched.Recorder,
// oracle.Tracker, bugs.Arena, Corpus, Journal, MinimizeTrace), with a span
// around each. It must stay step for step with runTrial and New's resume
// path: the traced run checks its journal against the real campaign's.
//
// A timed mirror runs lean arenas, as the real campaign does; a counting
// mirror gives its arenas a metrics registry and records only the counts,
// since the registry's own cost would distort the spans.
type mirror struct {
	counting bool
	w        campaignWorkload
	run      func(bugs.RunConfig) bugs.Outcome
	arms     []campaign.Arm
	seed     int64
	path     string
	l        *ledger

	corpus  *campaign.Corpus
	bandit  *campaign.UCB
	journal *campaign.Journal

	// The reusable trial world, built by each session's first trial.
	arena     *bugs.Arena
	inner     *core.Scheduler
	recording *core.RecordingScheduler
	rec       *sched.Recorder
	tracker   *oracle.Tracker

	done, manifested int
	completed        map[int]bool
	minimizeLeft     int
}

// runMirror runs the mirror of campaign seed, every session, into l:
// spans, or with counting the work counts.
func (w campaignWorkload) runMirror(seed int64, path string, l *ledger, counting bool) error {
	app := bugs.ByAbbr(w.app)
	m := &mirror{
		counting: counting, w: w, arms: campaign.DefaultArms(), seed: seed, path: path, l: l,
		// Campaign.New's virtual-time wrapper: minimization replays get a
		// fresh virtual clock too.
		run: func(rc bugs.RunConfig) bugs.Outcome {
			if rc.Clock == nil {
				rc.Clock = vclock.NewVirtual()
			}
			return app.Run(rc)
		},
	}
	for s := 0; s < w.sessions; s++ {
		if err := m.open(s > 0); err != nil {
			return err
		}
		for i := w.sessionStart(s); i < w.sessionStart(s+1); i++ {
			m.trial(i)
		}
		if err := m.finish(); err != nil {
			return err
		}
	}
	if counting {
		return nil
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	l.journalBytes += st.Size()
	l.journalTrials += w.trials
	return nil
}

// open starts a session as campaign.New does: fresh corpus and bandit,
// rebuilt from the journal on resume, and the journal opened for append.
func (m *mirror) open(resume bool) error {
	m.corpus = campaign.NewCorpus(campaign.DefaultNoveltyThreshold, campaign.DefaultCorpusCapacity, campaign.DefaultScheduleTruncate)
	m.bandit = campaign.NewUCB(len(m.arms), m.seed)
	m.done, m.manifested = 0, 0
	m.completed = make(map[int]bool)
	m.minimizeLeft = campaign.DefaultMinimizeTrials
	m.arena = nil
	m.inner = nil
	if resume {
		start := time.Now()
		st, err := campaign.LoadJournal(m.path)
		if err != nil {
			return err
		}
		replay := make([]campaign.TrialEntry, 0, len(st.Trials))
		for _, e := range st.Trials {
			replay = append(replay, e)
		}
		sort.Slice(replay, func(i, j int) bool { return replay[i].Trial < replay[j].Trial })
		for _, e := range replay {
			if e.Admitted {
				m.corpus.Admit(e.Schedule)
			}
		}
		for _, e := range replay {
			m.corpus.MarkSeen(e.Digest)
			m.bandit.Replay(e.Arm, e.Reward)
			m.completed[e.Trial] = true
			if e.Manifested {
				m.manifested++
			}
		}
		for _, e := range st.Coverage {
			m.corpus.SeedCoverage(e.Pairs, e.HBDigest, e.Tuples)
		}
		m.done = len(m.completed)
		if !m.counting {
			m.l.replays = append(m.l.replays, time.Since(start).Seconds())
		}
	}
	var err error
	m.journal, err = campaign.OpenJournal(m.path, !resume)
	return err
}

// trial runs trial i as Campaign.runTrial does.
func (m *mirror) trial(i int) {
	spans := make(map[string]time.Duration, len(spanNames))
	mark := time.Now()
	start := mark
	lap := func(name string) {
		now := time.Now()
		spans[name] += now.Sub(mark)
		mark = now
	}

	m.l.ran++
	seed := campaign.TrialSeed(m.seed, i)
	arm := m.bandit.Select()
	lap("campaign.bandit")
	if m.inner == nil {
		m.inner = core.NewScheduler(m.arms[arm].Params, seed)
		m.recording = core.NewRecording(m.inner)
		m.rec = sched.NewRecorder()
		m.tracker = nil
		if m.w.oracle || m.w.coverage {
			m.tracker = oracle.New()
		}
		m.arena = bugs.NewArena(m.counting)
	} else {
		m.inner.Reseed(m.arms[arm].Params, seed)
		m.recording.Reset()
		m.rec.Reset()
		if m.tracker != nil {
			m.tracker.Reset()
		}
	}
	lap("campaign.reset")
	runCfg := m.arena.Begin(bugs.RunConfig{Seed: seed, Scheduler: m.recording, Recorder: m.rec, Oracle: m.tracker})
	lap("bugs.begin")
	out, err := safeRun(m.run, runCfg)
	lap("bugs.run")
	runTime := spans["bugs.run"]
	if err != nil {
		m.arena.Discard()
		m.inner = nil
		m.bandit.Release(arm)
		m.l.errored++
		return
	}
	if m.counting {
		m.l.counts.add(m.arena.Registry(), m.recording, m.rec.Len())
	}
	mark = time.Now()

	types := m.rec.Types()
	trunc := sched.Truncate(types, campaign.DefaultScheduleTruncate)
	digest := sched.DigestString(sched.Digest(trunc))
	lap("sched.types")
	var cov *oracle.CoverageDigest
	if m.w.coverage {
		d := m.tracker.Coverage()
		cov = &d
	}
	lap("oracle.coverage")
	adm := m.corpus.AdmitWithCoverage(trunc, cov)
	lap("campaign.admit")
	admitUS := us(spans["campaign.admit"])

	violations := m.tracker.Reports()
	var reward float64
	switch {
	case m.w.coverage:
		reward = 0.3*adm.Novelty + 0.2*b2f(out.Manifested) + 0.3*b2f(len(violations) > 0) + 0.2*adm.CoverageNew
	case m.w.oracle:
		reward = 0.4*adm.Novelty + 0.2*b2f(len(violations) > 0) + 0.4*b2f(out.Manifested)
	default:
		reward = 0.5*adm.Novelty + 0.5*b2f(out.Manifested)
	}
	mark = time.Now()
	m.bandit.Update(arm, reward)
	lap("campaign.bandit")

	entry := campaign.TrialEntry{
		Type: "trial", Trial: i, Seed: seed, Arm: arm, ArmName: m.arms[arm].Name,
		Manifested: out.Manifested, Note: out.Note, Novelty: adm.Novelty,
		Admitted: adm.Admitted, Duplicate: adm.Duplicate, Digest: digest, Reward: reward,
		ElapsedMS: runTime.Milliseconds(), Violations: len(violations), NewCoverage: adm.CoverageNew,
	}
	if adm.Admitted {
		entry.Schedule = trunc
	}
	var covEntry *campaign.CoverageEntry
	if m.w.coverage && (len(adm.NewPairs) > 0 || adm.NewHB || len(adm.NewTuples) > 0) {
		covEntry = &campaign.CoverageEntry{Type: "coverage", Trial: i, Pairs: adm.NewPairs, Tuples: adm.NewTuples}
		if adm.NewHB {
			covEntry.HBDigest = cov.HBDigest
		}
	}
	var minEntry *campaign.MinimizedEntry
	if out.Manifested && m.minimizeLeft > 0 {
		m.minimizeLeft--
		mark = time.Now()
		res := campaign.MinimizeTrace(m.run, seed, m.recording.Trace(), campaign.DefaultMinimizeBudget)
		lap("campaign.minimize")
		minEntry = &campaign.MinimizedEntry{
			Type: "minimized", Trial: i, Seed: seed, Original: res.Original, Minimal: res.Minimal(),
			Points: res.Points, Replays: res.Replays, Reproduced: res.Reproduced,
		}
		if !m.counting {
			m.l.minimizeMS = append(m.l.minimizeMS, float64(spans["campaign.minimize"])/float64(time.Millisecond))
			m.l.minimizeReplays = append(m.l.minimizeReplays, float64(res.Replays))
		}
	}

	mark = time.Now()
	_ = m.journal.Append(entry) // a failed append is sticky; finish reports it
	if covEntry != nil {
		_ = m.journal.Append(*covEntry)
	}
	if minEntry != nil {
		_ = m.journal.Append(*minEntry)
	}
	m.done++
	if out.Manifested {
		m.manifested++
	}
	m.completed[i] = true
	if m.done%checkpointEvery == 0 {
		m.checkpoint()
	}
	lap("campaign.journal")

	if m.counting {
		return
	}
	l := m.l
	l.trials++
	l.totalUS += us(time.Since(start))
	for name, d := range spans {
		l.span[name] += us(d)
	}
	l.admit = append(l.admit, admitUS)
	if adm.Admitted {
		l.admitted++
	}
	if adm.Duplicate {
		l.duplicate++
	}
}

// checkpoint appends a summary record as Campaign.writeCheckpoint does.
func (m *mirror) checkpoint() {
	w := 0
	for m.completed[w] {
		w++
	}
	e := campaign.CheckpointEntry{
		Type: "checkpoint", Trials: m.w.trials, Done: m.done, Watermark: w,
		Manifested: m.manifested, CorpusLen: m.corpus.Len(), Arms: m.bandit.Stats(),
	}
	if m.w.coverage {
		e.CovPairs, e.CovDigests, e.CovTuples = m.corpus.CoverageStats()
	}
	_ = m.journal.Append(e) // sticky; finish reports it
}

// finish ends a session as Campaign.Finish does.
func (m *mirror) finish() error {
	m.checkpoint()
	err := m.journal.Err()
	if cerr := m.journal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("mirror journal: %w", err)
	}
	return nil
}

// safeRun runs one trial, turning a panic into an error as the campaign
// does.
func safeRun(run func(bugs.RunConfig) bugs.Outcome, rc bugs.RunConfig) (out bugs.Outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("trial panic: %v", p)
		}
	}()
	return run(rc), nil
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
