package campaign

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"nodefz/internal/bugs"
	"nodefz/internal/core"
	"nodefz/internal/jsonl"
	"nodefz/internal/metrics"
	"nodefz/internal/oracle"
	"nodefz/internal/sched"
	"nodefz/internal/vclock"
)

// Defaults for Config's zero values.
const (
	DefaultNoveltyThreshold = 0.15
	DefaultCorpusCapacity   = 64
	DefaultScheduleTruncate = 256
	DefaultMinimizeBudget   = 64
	DefaultMinimizeTrials   = 1
	// checkpointEvery is how many completed trials separate periodic
	// checkpoint summary records in the journal.
	checkpointEvery = 16
)

// Config parameterizes a campaign.
type Config struct {
	// App is the bug application under test (required).
	App *bugs.App
	// Fixed runs the patched variant instead of the buggy one.
	Fixed bool
	// Trials is the total number of trials the campaign comprises,
	// including any completed by previous runs being resumed (required).
	Trials int
	// Workers bounds the trial executor's pool; <= 0 means GOMAXPROCS.
	Workers int
	// BaseSeed feeds TrialSeed; trial i always runs with
	// TrialSeed(BaseSeed, i), independent of interleaving or resume.
	BaseSeed int64
	// Budget, when > 0, is the wall-clock budget: no new trial starts after
	// it elapses (in-flight trials finish). A budget stop leaves the journal
	// resumable. The budget is wall time — it measures real cost — while
	// the trials themselves run in simulated time.
	Budget time.Duration

	// VirtualTime has no effect.
	//
	// Deprecated: every campaign trial (and minimization replay) runs on
	// its own virtual clock, so a trial is a pure function of its seed; the
	// field is ignored.
	VirtualTime bool

	// NoveltyThreshold is the corpus admission threshold (0 means
	// DefaultNoveltyThreshold; negative means literally 0, admit any
	// non-duplicate).
	NoveltyThreshold float64
	// CorpusCapacity bounds the corpus (<= 0 means DefaultCorpusCapacity).
	CorpusCapacity int
	// ScheduleTruncate bounds the compared/stored schedule prefix
	// (<= 0 means DefaultScheduleTruncate).
	ScheduleTruncate int

	// MinimizeTrials caps how many manifesting trials are delta-debugged
	// (< 0 disables minimization; 0 means DefaultMinimizeTrials).
	MinimizeTrials int
	// MinimizeBudget caps replays per minimization (<= 0 means
	// DefaultMinimizeBudget).
	MinimizeBudget int

	// CheckpointPath, when set, is the JSONL checkpoint journal.
	CheckpointPath string
	// Resume loads CheckpointPath and skips journaled trials instead of
	// truncating the journal.
	Resume bool

	// Metrics, when non-nil, receives one metrics.TrialRecord per executed
	// trial (the same JSONL stream fzrun/fzbench emit), with Mode set to
	// "campaign/<arm>". The campaign flushes it at every checkpoint and
	// leaves closing it to the owner.
	Metrics *jsonl.Writer[metrics.TrialRecord]

	// Oracle attaches a fresh happens-before tracker to every trial. Each
	// trial's violation count is journaled, and a trial that produces at
	// least one report earns extra bandit reward — the oracle doubles as a
	// reward signal for schedules that expose races the detectors miss.
	Oracle bool
	// Coverage turns on interleaving-coverage feedback (implies Oracle):
	// each trial's CoverageDigest — racing pairs, HB-edge-set digest,
	// adjacency tuples, mined from the happens-before tracker — feeds the
	// corpus's global coverage map. A trial contributing a never-seen
	// racing pair or HB digest is admitted regardless of schedule novelty,
	// the bandit reward becomes
	//
	//	0.3*novelty + 0.2*manifested + 0.3*oracleViolation + 0.2*newCoverageFraction
	//
	// and the contributions are journaled as "coverage" records so resume
	// replays them. This is the greybox path: novelty search explores
	// schedule *text*; coverage feedback explores interleaving *behavior*.
	Coverage bool
	// OracleOut, when non-nil (and Oracle is set), receives every violation
	// as one TrialViolation JSONL line, annotated with trial and seed.
	OracleOut *jsonl.Writer[oracle.TrialViolation]

	// Progress, when non-nil, receives one line per executed trial; the CLI
	// uses it for streaming output. Called concurrently.
	Progress func(TrialEntry)
}

func (c Config) withDefaults() Config {
	if c.NoveltyThreshold == 0 {
		c.NoveltyThreshold = DefaultNoveltyThreshold
	} else if c.NoveltyThreshold < 0 {
		c.NoveltyThreshold = 0
	}
	if c.CorpusCapacity <= 0 {
		c.CorpusCapacity = DefaultCorpusCapacity
	}
	if c.ScheduleTruncate <= 0 {
		c.ScheduleTruncate = DefaultScheduleTruncate
	}
	if c.MinimizeTrials == 0 {
		c.MinimizeTrials = DefaultMinimizeTrials
	}
	if c.MinimizeBudget <= 0 {
		c.MinimizeBudget = DefaultMinimizeBudget
	}
	if c.Coverage {
		c.Oracle = true // the digest is mined from the HB tracker
	}
	return c
}

// Result summarizes a campaign run (cumulative across resumes).
type Result struct {
	// Trials is the configured campaign size.
	Trials int
	// Done counts completed trials, including resumed ones.
	Done int
	// Resumed counts trials skipped because the journal showed them done.
	Resumed int
	// Stopped counts trials not started because the budget elapsed.
	Stopped int
	// Errored counts trials that panicked mid-run: their bandit pull is
	// released, nothing is journaled, and resume re-runs them.
	Errored int
	// Manifested counts manifesting trials (cumulative).
	Manifested int
	// Violating counts trials with at least one oracle report (cumulative;
	// zero when the oracle is off).
	Violating int
	// Watermark is the contiguous completed-trial prefix length.
	Watermark int
	// CorpusLen is the final corpus size.
	CorpusLen int
	// CoveragePairs / CoverageDigests / CoverageTuples are the final global
	// coverage-map sizes (zero when coverage feedback is off).
	CoveragePairs   int
	CoverageDigests int
	CoverageTuples  int
	// Arms pairs each arm with its cumulative bandit statistics.
	Arms []ArmResult
	// Minimized holds every minimization performed (cumulative).
	Minimized []MinimizedEntry
	// FirstNote is the first manifesting trial's detector note.
	FirstNote string
}

// ArmResult is one arm's campaign-level statistics.
type ArmResult struct {
	Name string
	ArmStat
	Manifested int
}

// Campaign is a fuzzing campaign as a *schedulable unit*: instead of running
// to completion like Run, it executes in caller-chosen slices of trials
// (RunRange) between which it is fully pausable and inspectable (Snapshot).
// The fleet meta-scheduler allocates CPU to campaigns one slice at a time;
// Run is now a thin wrapper that executes the single slice [0, Trials).
//
// A Campaign owns the corpus, bandit, and checkpoint journal across slices,
// so a trial run in slice 40 sees everything slice 0 learned. Trial
// identity is positional: trial i always runs seed TrialSeed(BaseSeed, i)
// no matter which slice (or which process, after a resume) executes it.
type Campaign struct {
	cfg      Config
	arms     []Arm // the bandit's arms, DefaultArms()
	run      func(bugs.RunConfig) bugs.Outcome
	corpus   *Corpus
	bandit   *UCB
	journal  *Journal
	deadline time.Time

	mu            sync.Mutex
	res           Result
	completed     map[int]bool       // trial index -> done (resumed or fresh)
	entries       map[int]TrialEntry // per-trial outcomes (resumed + fresh)
	armManifested []int
	minimizeLeft  int
	worlds        []*world // per-worker reusable trial worlds, across slices
}

// world is one executor worker's reusable trial machinery: the arena (loop,
// worker pool, network, clock, metrics registry) plus the campaign-side
// collaborators — scheduler, trace recorder, schedule recorder, oracle —
// that are reset in lockstep with it each trial. A world is pinned to one
// worker index, so at most one trial touches it at a time, and it survives
// across RunRange slices: a fleet running a campaign in forty slices still
// builds each worker's loop exactly once.
type world struct {
	arena     *bugs.Arena
	inner     *core.Scheduler
	recording *core.RecordingScheduler
	rec       *sched.Recorder
	tracker   *oracle.Tracker
}

// New builds a campaign in its paused state: configuration is validated, the
// journal (if any) is loaded and replayed — corpus, bandit, coverage map,
// and done-set all restored — and the journal is (re)opened for appending.
// No trial runs until RunRange. Callers must eventually call Finish to
// write the final checkpoint and release the journal.
func New(cfg Config) (*Campaign, error) {
	cfg = cfg.withDefaults()
	if cfg.App == nil {
		return nil, errors.New("campaign: Config.App is required")
	}
	if cfg.Trials <= 0 {
		return nil, errors.New("campaign: Config.Trials must be positive")
	}
	run := cfg.App.Run
	if cfg.Fixed {
		if cfg.App.RunFixed == nil {
			return nil, fmt.Errorf("campaign: %s has no modelled fix", cfg.App.Abbr)
		}
		run = cfg.App.RunFixed
	}
	// Trials get their clock from the worker's arena; minimization replays
	// build their own RunConfigs, and this wrapper gives each of them a
	// fresh virtual clock.
	inner := run
	run = func(rc bugs.RunConfig) bugs.Outcome {
		if rc.Clock == nil {
			rc.Clock = vclock.NewVirtual()
		}
		return inner(rc)
	}

	arms := DefaultArms()
	c := &Campaign{
		cfg:           cfg,
		arms:          arms,
		run:           run,
		corpus:        NewCorpus(cfg.NoveltyThreshold, cfg.CorpusCapacity, cfg.ScheduleTruncate),
		bandit:        NewUCB(len(arms), cfg.BaseSeed),
		completed:     make(map[int]bool),
		entries:       make(map[int]TrialEntry),
		armManifested: make([]int, len(arms)),
		minimizeLeft:  cfg.MinimizeTrials,
	}
	c.res.Trials = cfg.Trials

	// Resume: rebuild corpus, bandit, and the done-set from the journal.
	if cfg.Resume && cfg.CheckpointPath != "" {
		st, err := LoadJournal(cfg.CheckpointPath)
		if err != nil {
			return nil, err
		}
		// Re-admit the admitted schedules in trial-journal order first (the
		// corpus state replays exactly), then mark every offered digest so
		// previously rejected schedules stay duplicates.
		replay := make([]TrialEntry, 0, len(st.Trials))
		for _, e := range st.Trials {
			replay = append(replay, e)
		}
		sort.Slice(replay, func(i, j int) bool { return replay[i].Trial < replay[j].Trial })
		for _, e := range replay {
			if e.Admitted {
				c.corpus.Admit(e.Schedule)
			}
		}
		for _, e := range replay {
			c.corpus.MarkSeen(e.Digest)
			c.bandit.Replay(e.Arm, e.Reward)
			c.completed[e.Trial] = true
			c.entries[e.Trial] = e
			if e.Manifested {
				c.res.Manifested++
				if e.Arm >= 0 && e.Arm < len(c.armManifested) {
					c.armManifested[e.Arm]++
				}
				if c.res.FirstNote == "" {
					c.res.FirstNote = e.Note
				}
			}
			if e.Violations > 0 {
				c.res.Violating++
			}
		}
		c.res.Minimized = append(c.res.Minimized, st.Minimized...)
		// Replay journaled coverage contributions so a resumed campaign
		// neither re-rewards nor re-admits interleavings a previous run
		// already discovered. Pre-coverage journals carry no such records;
		// the map simply starts empty.
		for _, e := range st.Coverage {
			c.corpus.SeedCoverage(e.Pairs, e.HBDigest, e.Tuples)
		}
		c.res.Resumed = len(c.completed)
		c.res.Done = len(c.completed)
	}

	if cfg.CheckpointPath != "" {
		var err error
		c.journal, err = OpenJournal(cfg.CheckpointPath, !cfg.Resume)
		if err != nil {
			return nil, err
		}
	}

	if cfg.Budget > 0 {
		c.deadline = time.Now().Add(cfg.Budget)
	}
	return c, nil
}

// App returns the campaign's bug application.
func (c *Campaign) App() *bugs.App { return c.cfg.App }

// Trials returns the configured campaign size.
func (c *Campaign) Trials() int { return c.cfg.Trials }

// Done reports how many trials have completed (resumed plus fresh).
func (c *Campaign) Done() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.res.Done
}

// SliceReport summarizes one RunRange call. Ran/Skipped/Errored/Stopped
// describe what *this* call did; the yield counters (Done, Admitted,
// Violating, NewCov, Manifested) describe the per-trial outcomes of every
// completed trial in the covered range — including trials a previous run
// completed and this process restored from the journal. Counting restored
// trials makes a slice's yield a pure function of the trial range and the
// seeds, so a fleet that was killed mid-slice and resumed computes exactly
// the yield an uninterrupted fleet would have.
type SliceReport struct {
	// From and To bound the covered trial range [From, To).
	From, To int
	// Ran counts trials freshly executed by this call; Skipped counts
	// trials in the range that were already complete.
	Ran, Skipped int
	// Errored counts trials that panicked (released, re-run on resume);
	// Stopped counts trials not started because the budget elapsed.
	Errored, Stopped int
	// Done counts completed trials in the range (Ran + Skipped).
	Done int
	// Admitted counts range trials whose schedule entered the corpus.
	Admitted int
	// Violating counts range trials with at least one oracle report.
	Violating int
	// NewCov counts range trials that contributed never-seen interleaving
	// coverage (a new racing pair, HB digest, or adjacency tuple).
	NewCov int
	// Manifested counts range trials on which the bug manifested.
	Manifested int
}

// Yield is the slice's marginal-yield signal, the fleet allocator's reward:
// corpus admissions plus oracle-violating trials plus new-coverage trials,
// per trial in the range. Zero for an empty range.
func (r SliceReport) Yield() float64 {
	n := r.To - r.From
	if n <= 0 {
		return 0
	}
	return float64(r.Admitted+r.Violating+r.NewCov) / float64(n)
}

// RunRange executes every not-yet-completed trial with index in [from, to),
// in index order across the worker pool, and reports the slice's outcome.
// Ranges may be revisited (completed trials are skipped), so a fleet resume
// that re-runs a half-finished slice executes only the missing trials.
func (c *Campaign) RunRange(from, to int) SliceReport {
	if from < 0 {
		from = 0
	}
	if to > c.cfg.Trials {
		to = c.cfg.Trials
	}
	rep := SliceReport{From: from, To: to}
	if from >= to {
		return rep
	}

	c.mu.Lock()
	pending := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		if !c.completed[i] {
			pending = append(pending, i)
		}
	}
	c.mu.Unlock()
	rep.Skipped = (to - from) - len(pending)

	if len(pending) > 0 {
		var cmu sync.Mutex
		ex := Executor{Workers: c.cfg.Workers}
		worlds := c.acquireWorlds(ex.WorkerCount(len(pending)))
		ex.RunIndexed(len(pending), func(wk, j int) {
			st := c.runTrial(pending[j], worlds[wk])
			cmu.Lock()
			switch st {
			case trialRan:
				rep.Ran++
			case trialErrored:
				rep.Errored++
			case trialStopped:
				rep.Stopped++
			}
			cmu.Unlock()
		})
	}

	c.mu.Lock()
	for i := from; i < to; i++ {
		e, ok := c.entries[i]
		if !ok {
			continue
		}
		rep.Done++
		if e.Admitted {
			rep.Admitted++
		}
		if e.Violations > 0 {
			rep.Violating++
		}
		if e.NewCoverage > 0 {
			rep.NewCov++
		}
		if e.Manifested {
			rep.Manifested++
		}
	}
	c.mu.Unlock()
	return rep
}

// acquireWorlds returns the per-worker reusable trial worlds for a slice
// using w workers, growing the campaign's pool on first need.
func (c *Campaign) acquireWorlds(w int) []*world {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.worlds) < w {
		c.worlds = append(c.worlds, &world{})
	}
	return c.worlds[:w]
}

type trialStatus int

const (
	trialRan trialStatus = iota
	trialErrored
	trialStopped
)

// runTrial executes one trial end to end in the calling worker's world w:
// bandit select, world reset, run, corpus admission, reward, journal,
// metrics, optional minimization. A world's first trial builds its
// machinery; every later one resets it in place.
func (c *Campaign) runTrial(i int, w *world) trialStatus {
	cfg := c.cfg
	if !c.deadline.IsZero() && time.Now().After(c.deadline) {
		c.mu.Lock()
		c.res.Stopped++
		c.mu.Unlock()
		return trialStopped
	}

	seed := TrialSeed(cfg.BaseSeed, i)
	arm := c.bandit.Select()
	if w.inner == nil {
		w.inner = core.NewScheduler(c.arms[arm].Params, seed)
		w.recording = core.NewRecording(w.inner)
		w.rec = sched.NewRecorder()
		if cfg.Oracle {
			w.tracker = oracle.New()
		}
		if w.arena == nil {
			w.arena = bugs.NewArena(cfg.Metrics != nil)
		}
	} else {
		w.inner.Reseed(c.arms[arm].Params, seed)
		w.recording.Reset()
		w.rec.Reset()
		if w.tracker != nil {
			w.tracker.Reset()
		}
	}
	recording, rec, tracker := w.recording, w.rec, w.tracker
	runCfg := w.arena.Begin(bugs.RunConfig{Seed: seed, Scheduler: recording, Recorder: rec, Oracle: tracker})
	reg := w.arena.Registry()

	start := time.Now()
	out, trialErr := runSafely(c.run, runCfg)
	elapsed := time.Since(start)
	if trialErr != nil {
		// The trial died before producing an outcome: release the
		// provisional pull Select counted (otherwise the arm's mean is
		// permanently deflated by a pull that never earned reward) and
		// journal nothing, so resume re-runs the trial. A panicked trial
		// also leaves a reusable world in an unknown state, so the arena
		// and its collaborators are discarded; the worker's next trial
		// rebuilds from scratch.
		w.arena.Discard()
		w.inner, w.recording, w.rec, w.tracker = nil, nil, nil, nil
		c.bandit.Release(arm)
		c.mu.Lock()
		c.res.Errored++
		c.mu.Unlock()
		return trialErrored
	}

	types := rec.Types()
	var cov *oracle.CoverageDigest
	if cfg.Coverage {
		d := tracker.Coverage()
		cov = &d
	}
	adm := c.corpus.AdmitWithCoverage(sched.Truncate(types, cfg.ScheduleTruncate), cov)
	violations := tracker.Reports()
	var reward float64
	switch {
	case cfg.Coverage:
		// Greybox split: schedule novelty, the detector verdict, the
		// oracle verdict, and the fraction of the trial's interleaving
		// coverage the campaign had never seen.
		reward = 0.3*adm.Novelty + 0.2*b2f(out.Manifested) +
			0.3*b2f(len(violations) > 0) + 0.2*adm.CoverageNew
	case cfg.Oracle:
		// With the oracle attached the reward splits three ways: novelty,
		// the detector verdict, and the oracle verdict. An oracle report on
		// a non-manifesting trial marks a schedule that came close — worth
		// steering the bandit toward.
		reward = 0.4*adm.Novelty + 0.2*b2f(len(violations) > 0) + 0.4*b2f(out.Manifested)
	default:
		reward = 0.5*adm.Novelty + 0.5*b2f(out.Manifested)
	}
	c.bandit.Update(arm, reward)
	if cfg.OracleOut != nil {
		_ = cfg.OracleOut.Append(oracle.Violations(cfg.App.Abbr, "campaign/"+c.arms[arm].Name, i, seed, violations)...)
	}

	entry := TrialEntry{
		Type:        "trial",
		Trial:       i,
		Seed:        seed,
		Arm:         arm,
		ArmName:     c.arms[arm].Name,
		Manifested:  out.Manifested,
		Note:        out.Note,
		Novelty:     adm.Novelty,
		Admitted:    adm.Admitted,
		Duplicate:   adm.Duplicate,
		Digest:      sched.DigestString(sched.Digest(sched.Truncate(types, cfg.ScheduleTruncate))),
		Reward:      reward,
		ElapsedMS:   elapsed.Milliseconds(),
		Violations:  len(violations),
		NewCoverage: adm.CoverageNew,
	}
	if adm.Admitted {
		entry.Schedule = sched.Truncate(types, cfg.ScheduleTruncate)
	}
	var covEntry *CoverageEntry
	if cfg.Coverage && (len(adm.NewPairs) > 0 || adm.NewHB || len(adm.NewTuples) > 0) {
		covEntry = &CoverageEntry{
			Type:   "coverage",
			Trial:  i,
			Pairs:  adm.NewPairs,
			Tuples: adm.NewTuples,
		}
		if adm.NewHB {
			covEntry.HBDigest = cov.HBDigest
		}
	}

	var minEntry *MinimizedEntry
	if out.Manifested {
		c.mu.Lock()
		doMin := c.minimizeLeft > 0
		if doMin {
			c.minimizeLeft--
		}
		c.mu.Unlock()
		if doMin {
			m := MinimizeTrace(c.run, seed, recording.Trace(), cfg.MinimizeBudget)
			minEntry = &MinimizedEntry{
				Type:       "minimized",
				Trial:      i,
				Seed:       seed,
				Original:   m.Original,
				Minimal:    m.Minimal(),
				Points:     m.Points,
				Replays:    m.Replays,
				Reproduced: m.Reproduced,
			}
		}
	}

	if c.journal != nil {
		// One call keeps a trial's records on consecutive lines. A kill can
		// still land between them; LoadJournal re-runs a trial whose
		// coverage record is missing.
		recs := append(make([]any, 0, 3), entry)
		if covEntry != nil {
			recs = append(recs, *covEntry)
		}
		if minEntry != nil {
			recs = append(recs, *minEntry)
		}
		_ = c.journal.Append(recs...)
	}
	if cfg.Metrics != nil {
		d, _ := core.DecisionsOf(recording)
		d.FoldInto(reg)
		_ = cfg.Metrics.Append(metrics.TrialRecord{
			Bug:         cfg.App.Abbr,
			Mode:        "campaign/" + c.arms[arm].Name,
			Seed:        seed,
			Trial:       i,
			Manifested:  out.Manifested,
			Note:        out.Note,
			Metrics:     reg.Snapshot(),
			Schedule:    sched.Truncate(types, cfg.ScheduleTruncate),
			NewCoverage: adm.CoverageNew,
		})
	}

	c.mu.Lock()
	c.res.Done++
	if out.Manifested {
		c.res.Manifested++
		c.armManifested[arm]++
		if c.res.FirstNote == "" {
			c.res.FirstNote = out.Note
		}
	}
	if len(violations) > 0 {
		c.res.Violating++
	}
	if minEntry != nil {
		c.res.Minimized = append(c.res.Minimized, *minEntry)
	}
	c.completed[i] = true
	c.entries[i] = entry
	doneCount := c.res.Done
	c.mu.Unlock()

	if cfg.Progress != nil {
		cfg.Progress(entry)
	}
	if doneCount%checkpointEvery == 0 {
		c.writeCheckpoint()
	}
	return trialRan
}

func (c *Campaign) writeCheckpoint() {
	// The checkpoint is the campaign's durability boundary: push any
	// buffered metrics lines out with it, so a killed campaign's metrics
	// stream is current up to the last checkpoint the journal shows.
	_ = c.cfg.Metrics.Flush()
	if c.journal == nil {
		return
	}
	c.mu.Lock()
	entry := CheckpointEntry{
		Type:       "checkpoint",
		Trials:     c.cfg.Trials,
		Done:       c.res.Done,
		Watermark:  watermarkOf(c.completed),
		Manifested: c.res.Manifested,
		CorpusLen:  c.corpus.Len(),
		Arms:       c.bandit.Stats(),
	}
	c.mu.Unlock()
	if c.cfg.Coverage {
		entry.CovPairs, entry.CovDigests, entry.CovTuples = c.corpus.CoverageStats()
	}
	_ = c.journal.Append(entry)
}

// Snapshot returns the campaign's cumulative result so far — the fleet
// dashboard's per-campaign view. Safe to call between (not during) slices.
func (c *Campaign) Snapshot() Result {
	c.mu.Lock()
	res := c.res
	res.Arms = nil // rebuilt below; the shared slice must not escape
	res.Minimized = append([]MinimizedEntry(nil), c.res.Minimized...)
	res.Watermark = watermarkOf(c.completed)
	c.mu.Unlock()
	res.CorpusLen = c.corpus.Len()
	if c.cfg.Coverage {
		res.CoveragePairs, res.CoverageDigests, res.CoverageTuples = c.corpus.CoverageStats()
	}
	stats := c.bandit.Stats()
	res.Arms = make([]ArmResult, len(c.arms))
	c.mu.Lock()
	for i, a := range c.arms {
		res.Arms[i] = ArmResult{Name: a.Name, ArmStat: stats[i], Manifested: c.armManifested[i]}
	}
	c.mu.Unlock()
	return res
}

// Finish writes the final checkpoint, closes the journal, and returns the
// cumulative result. The campaign must not be used afterwards.
func (c *Campaign) Finish() (*Result, error) {
	res := c.Snapshot()
	c.writeCheckpoint()
	if err := c.journal.Close(); err != nil {
		return &res, err
	}
	return &res, nil
}

// Run executes (or resumes) a campaign to completion: it is New, one
// all-encompassing RunRange slice, and Finish. It returns an error only for
// setup and journal problems; trial outcomes are data, not errors.
func Run(cfg Config) (*Result, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	c.RunRange(0, c.cfg.Trials)
	return c.Finish()
}

// runSafely executes one trial, converting a panic in the app or substrate
// into an error instead of taking down the whole campaign (and every other
// worker's in-flight trial) with it.
func runSafely(run func(bugs.RunConfig) bugs.Outcome, cfg bugs.RunConfig) (out bugs.Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("campaign: trial panic: %v", r)
		}
	}()
	return run(cfg), nil
}

// b2f is the reward indicator: 1 for true, 0 for false.
func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// watermarkOf computes the contiguous completed prefix of the done-set.
func watermarkOf(done map[int]bool) int {
	w := 0
	for done[w] {
		w++
	}
	return w
}
