// Package fleet is the cross-campaign meta-scheduler: it runs N fuzzing
// campaigns — one per bug application — as a single resource-allocation
// problem under one global trial budget, instead of N isolated runs.
//
// "Fuzzing at Scale" (arXiv 2406.18058) observes that at production scale
// the cross-target question — which app gets the next CPU-second —
// dominates campaign yield; T-Scheduler (arXiv 2312.04749) argues for
// principled bandit reward over ad-hoc heuristics. The fleet applies both:
// each campaign is a schedulable unit (campaign.Campaign) executed in
// slices of K trials, and an epsilon-greedy allocator hands the next slice
// to the campaign with the best *decayed recent yield* — novel corpus
// admissions plus oracle-violating trials plus new-coverage trials per
// trial of the last slices. The exponential decay is the release valve: a
// campaign that stops yielding sees its estimate collapse toward zero
// within a few slices and its workers flow to targets that still produce.
//
// Everything is deterministic given the base seed when children run with
// one worker (campaign trials always run in virtual time): allocation
// decisions use a stateless
// splitmix-derived RNG keyed by (seed, decision index), trial seeds are
// positional, and slice yields are pure functions of the trial range — so
// a fleet killed at any instant and resumed from its journals converges to
// bit-identical allocator watermarks.
package fleet

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"nodefz/internal/bugs"
	"nodefz/internal/campaign"
	"nodefz/internal/jsonl"
	"nodefz/internal/metrics"
	"nodefz/internal/oracle"
)

// Defaults for Config's zero values.
const (
	DefaultSliceTrials      = 8
	DefaultEpsilon          = 0.1
	DefaultDecay            = 0.5
	DefaultManifestDiscount = 0.25
	DefaultDashboardEvery   = 8
	// fleetCheckpointEvery is how many slices separate periodic
	// fleet-checkpoint records in the journal.
	fleetCheckpointEvery = 8
)

// Policy selects the allocator.
type Policy string

const (
	// PolicyGreedy is the default: epsilon-greedy over decayed recent
	// yield, with every campaign probed once (in spec order) before the
	// bandit takes over.
	PolicyGreedy Policy = "greedy"
	// PolicyRoundRobin cycles slices through the active campaigns in spec
	// order — the uniform-allocation baseline the greedy policy is gated
	// against.
	PolicyRoundRobin Policy = "round-robin"
)

// Spec names one campaign of the fleet.
type Spec struct {
	// App is the bug application under test (required).
	App *bugs.App
	// Fixed runs the patched variant instead of the buggy one.
	Fixed bool
}

// Config parameterizes a fleet.
type Config struct {
	// Specs lists the campaigns, one per bug application (required,
	// abbreviations must be unique — each names a child journal file).
	Specs []Spec
	// GlobalTrials is the fleet-wide trial budget (required). The fleet
	// stops assigning slices once this many trials have been handed out.
	GlobalTrials int
	// CampaignTrials caps any single campaign's trials (<= 0 means
	// GlobalTrials — one campaign may absorb the whole budget).
	CampaignTrials int
	// SliceTrials is K, the slice size: the allocator grants CPU in units
	// of K trials (<= 0 means DefaultSliceTrials).
	SliceTrials int
	// Workers is the executor width each slice runs with (<= 0 means 1).
	// One worker keeps corpus admission order — and therefore the whole
	// fleet — bit-deterministic per seed; larger widths trade that for
	// throughput exactly as fzcampaign does.
	Workers int
	// BaseSeed seeds everything: child campaign i runs with base seed
	// TrialSeed(BaseSeed^fleetSeedSalt, i), and allocation decision d
	// draws from a stateless RNG keyed by (BaseSeed, d).
	BaseSeed int64
	// Policy selects the allocator ("" means PolicyGreedy).
	Policy Policy
	// Epsilon is the exploration rate of the greedy policy (0 means
	// DefaultEpsilon; negative means literally 0, pure exploitation).
	Epsilon float64
	// Decay is the keep-fraction of the per-campaign yield EMA (0 means
	// DefaultDecay; must stay < 1). After a zero-yield slice a campaign's
	// estimate shrinks to Decay of itself — the decaying window that lets
	// exhausted targets release their workers.
	Decay float64
	// ManifestDiscount scales a slice's yield once the campaign has already
	// manifested its bug (0 means DefaultManifestDiscount; negative means
	// literally 0). Raw violation counts never dry up on oracle-noisy
	// targets, so without this a single always-violating app can pin the
	// allocator forever; a found bug is an exhausted discovery target, and
	// the discount makes it release its workers to campaigns still hunting
	// their first manifestation.
	ManifestDiscount float64

	// Oracle / Coverage are passed through to every child campaign (see
	// campaign.Config).
	Oracle   bool
	Coverage bool

	// Dir, when set, enables checkpointing: the fleet journal lives at
	// <Dir>/fleet.jsonl and each child campaign journals to
	// <Dir>/<abbr>.jsonl. The directory is created if absent.
	Dir string
	// Resume restores the fleet (allocator state and every child campaign)
	// from the journals in Dir instead of starting fresh.
	Resume bool

	// Metrics, when non-nil, receives every child campaign's per-trial
	// TrialRecord on one shared stream (rows are distinguished by their
	// Bug field) — the same JSONL export fzrun/fzcampaign emit.
	Metrics *jsonl.Writer[metrics.TrialRecord]
	// OracleOut, when non-nil (with Oracle set), receives every child
	// campaign's violations on one shared report stream.
	OracleOut *jsonl.Writer[oracle.TrialViolation]

	// Dashboard, when non-nil, receives a rendered text status table every
	// DashboardEvery slices and once at Finish.
	Dashboard io.Writer
	// DashboardJSONL, when non-nil, receives the same snapshots as
	// machine-readable metrics.FleetStatusRecord lines.
	DashboardJSONL *jsonl.Writer[metrics.FleetStatusRecord]
	// DashboardEvery is the emission period in slices (<= 0 means
	// DefaultDashboardEvery).
	DashboardEvery int

	// MaxSlices, when > 0, pauses the fleet (resumably) after this many
	// slices have been executed by this process — the programmatic
	// equivalent of a kill between slices, used by tests and smoke runs.
	MaxSlices int

	// Progress, when non-nil, receives every slice record as it completes.
	Progress func(SliceRecord)
}

// fleetSeedSalt decorrelates child campaign base seeds from the fleet's
// allocator RNG streams, which share BaseSeed.
const fleetSeedSalt = 0x666c656574 // "fleet"

func (c Config) withDefaults() Config {
	if c.SliceTrials <= 0 {
		c.SliceTrials = DefaultSliceTrials
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.CampaignTrials <= 0 {
		c.CampaignTrials = c.GlobalTrials
	}
	if c.Policy == "" {
		c.Policy = PolicyGreedy
	}
	if c.Epsilon == 0 {
		c.Epsilon = DefaultEpsilon
	} else if c.Epsilon < 0 {
		c.Epsilon = 0
	}
	if c.Decay == 0 {
		c.Decay = DefaultDecay
	}
	if c.ManifestDiscount == 0 {
		c.ManifestDiscount = DefaultManifestDiscount
	} else if c.ManifestDiscount < 0 {
		c.ManifestDiscount = 0
	}
	if c.DashboardEvery <= 0 {
		c.DashboardEvery = DefaultDashboardEvery
	}
	return c
}

// unit is one campaign plus its allocator bookkeeping.
type unit struct {
	spec   Spec
	camp   *campaign.Campaign
	cap    int     // per-campaign trial cap
	cursor int     // next trial index the allocator would assign
	slices int     // slices granted so far
	yield  float64 // decayed recent yield (the allocator's reward estimate)
}

// Fleet runs N campaigns under one global budget. Build with New, drive
// with Step (or Run), and always Finish to flush journals.
type Fleet struct {
	cfg      Config
	units    []*unit
	byApp    map[string]int
	journal  *campaign.Journal
	slices   int // allocation decisions made (== slice records written)
	assigned int // trials assigned to slices so far
	lastPick int // unit index of the most recent slice; -1 before the first
	ranHere  int // slices executed by this process (MaxSlices accounting)
}

// New builds a fleet in its paused state: child campaigns are created (and,
// on resume, restored from their journals), the fleet journal is loaded and
// replayed into the allocator, and no trial runs until Step.
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Specs) == 0 {
		return nil, errors.New("fleet: Config.Specs is required")
	}
	if cfg.GlobalTrials <= 0 {
		return nil, errors.New("fleet: Config.GlobalTrials must be positive")
	}
	if cfg.Decay < 0 || cfg.Decay >= 1 {
		return nil, fmt.Errorf("fleet: Config.Decay %v outside [0, 1)", cfg.Decay)
	}
	if cfg.Resume && cfg.Dir == "" {
		return nil, errors.New("fleet: Resume requires Dir")
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
	}

	f := &Fleet{cfg: cfg, byApp: make(map[string]int, len(cfg.Specs)), lastPick: -1}
	for i, spec := range cfg.Specs {
		if spec.App == nil {
			return nil, fmt.Errorf("fleet: Specs[%d].App is nil", i)
		}
		if _, dup := f.byApp[spec.App.Abbr]; dup {
			return nil, fmt.Errorf("fleet: duplicate campaign %s", spec.App.Abbr)
		}
		ccfg := campaign.Config{
			App:      spec.App,
			Fixed:    spec.Fixed,
			Trials:   cfg.CampaignTrials,
			Workers:  cfg.Workers,
			BaseSeed: campaign.TrialSeed(cfg.BaseSeed^fleetSeedSalt, i),
			Oracle:   cfg.Oracle,
			Coverage: cfg.Coverage,
			// The fleet optimizes for discovery throughput; delta-debugging
			// manifesting trials is a post-campaign activity.
			MinimizeTrials: -1,
			Metrics:        cfg.Metrics,
			OracleOut:      cfg.OracleOut,
			Resume:         cfg.Resume,
		}
		if cfg.Dir != "" {
			ccfg.CheckpointPath = filepath.Join(cfg.Dir, spec.App.Abbr+".jsonl")
		}
		camp, err := campaign.New(ccfg)
		if err != nil {
			return nil, fmt.Errorf("fleet: %s: %w", spec.App.Abbr, err)
		}
		f.byApp[spec.App.Abbr] = i
		f.units = append(f.units, &unit{spec: spec, camp: camp, cap: cfg.CampaignTrials})
	}

	if cfg.Dir != "" {
		path := filepath.Join(cfg.Dir, "fleet.jsonl")
		if cfg.Resume {
			st, err := loadJournal(path)
			if err != nil {
				return nil, err
			}
			if err := f.replay(st.Slices); err != nil {
				return nil, err
			}
		}
		var err error
		f.journal, err = campaign.OpenJournal(path, !cfg.Resume)
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

// replay restores the allocator from journaled slice records, in order. The
// EMA updates replay with the same float operations in the same order as
// the live path, so the restored yields are bit-identical.
func (f *Fleet) replay(recs []SliceRecord) error {
	for _, rec := range recs {
		i, ok := f.byApp[rec.App]
		if !ok {
			return fmt.Errorf("fleet: journal names campaign %s not in this fleet", rec.App)
		}
		u := f.units[i]
		if rec.From != u.cursor {
			return fmt.Errorf("fleet: journal slice %d for %s starts at %d, cursor is %d",
				rec.Slice, rec.App, rec.From, u.cursor)
		}
		u.cursor = rec.To
		u.slices++
		u.yield = f.cfg.Decay*u.yield + (1-f.cfg.Decay)*rec.Yield
		f.assigned += rec.To - rec.From
		f.slices++
		f.lastPick = i
	}
	return nil
}

// pick chooses the campaign for the next slice. Returns -1 when the fleet
// is done: budget exhausted or every campaign at its cap. The decision is a
// pure function of (BaseSeed, decision index, allocator state), which is
// what makes resume replay exact.
func (f *Fleet) pick() (idx int, explore bool) {
	if f.assigned >= f.cfg.GlobalTrials {
		return -1, false
	}
	active := make([]int, 0, len(f.units))
	for i, u := range f.units {
		if u.cursor < u.cap {
			active = append(active, i)
		}
	}
	if len(active) == 0 {
		return -1, false
	}
	// Cold start: every campaign gets probed once, in spec order, before
	// any yield comparison — the allocator refuses to starve a target it
	// has never measured.
	for _, i := range active {
		if f.units[i].slices == 0 {
			return i, false
		}
	}
	if f.cfg.Policy == PolicyRoundRobin {
		for _, i := range active {
			if i > f.lastPick {
				return i, false
			}
		}
		return active[0], false
	}
	// Epsilon-greedy over decayed recent yield.
	if rand01(f.cfg.BaseSeed, f.slices) < f.cfg.Epsilon {
		return active[randIdx(f.cfg.BaseSeed, f.slices, len(active))], true
	}
	best := active[0]
	for _, i := range active[1:] {
		if f.units[i].yield > f.units[best].yield {
			best = i
		}
	}
	return best, false
}

// Step makes one allocation decision and runs the granted slice. It returns
// false when the fleet is finished (budget exhausted, all campaigns at cap)
// or paused (MaxSlices reached); the journal stays resumable either way.
func (f *Fleet) Step() (SliceRecord, bool) {
	if f.cfg.MaxSlices > 0 && f.ranHere >= f.cfg.MaxSlices {
		return SliceRecord{}, false
	}
	i, explore := f.pick()
	if i < 0 {
		return SliceRecord{}, false
	}
	u := f.units[i]
	k := f.cfg.SliceTrials
	if rem := u.cap - u.cursor; rem < k {
		k = rem
	}
	if rem := f.cfg.GlobalTrials - f.assigned; rem < k {
		k = rem
	}
	from, to := u.cursor, u.cursor+k
	rep := u.camp.RunRange(from, to)
	u.cursor = to
	f.assigned += k
	y := rep.Yield()
	// A campaign whose bug has manifested (including on this slice) is an
	// exhausted discovery target: discount its yield so the budget flows to
	// campaigns still hunting their first manifestation. The discounted
	// value is what gets journaled, keeping resume replay bit-identical.
	if u.camp.Snapshot().Manifested > 0 {
		y *= f.cfg.ManifestDiscount
	}
	u.yield = f.cfg.Decay*u.yield + (1-f.cfg.Decay)*y
	u.slices++
	f.lastPick = i

	rec := SliceRecord{
		Type:       "slice",
		Slice:      f.slices,
		App:        u.spec.App.Abbr,
		From:       from,
		To:         to,
		Ran:        rep.Ran,
		Skipped:    rep.Skipped,
		Errored:    rep.Errored,
		Admitted:   rep.Admitted,
		Violating:  rep.Violating,
		NewCov:     rep.NewCov,
		Manifested: rep.Manifested,
		Yield:      y,
		Workers:    f.cfg.Workers,
		Explore:    explore,
	}
	f.slices++
	f.ranHere++
	if f.journal != nil {
		_ = f.journal.Append(rec)
		if f.slices%fleetCheckpointEvery == 0 {
			_ = f.journal.Append(f.checkpoint())
		}
	}
	if f.cfg.Progress != nil {
		f.cfg.Progress(rec)
	}
	if f.slices%f.cfg.DashboardEvery == 0 {
		f.emitDashboard()
	}
	return rec, true
}

// Slices reports the number of allocation decisions made (including
// replayed ones); Assigned the number of trials handed out so far.
func (f *Fleet) Slices() int   { return f.slices }
func (f *Fleet) Assigned() int { return f.assigned }

// checkpoint builds the fleet's current watermark record.
func (f *Fleet) checkpoint() CheckpointRecord {
	rec := CheckpointRecord{
		Type:     "fleet-checkpoint",
		Slices:   f.slices,
		Assigned: f.assigned,
		Budget:   f.cfg.GlobalTrials,
	}
	for _, u := range f.units {
		s := u.camp.Snapshot()
		rec.Campaigns = append(rec.Campaigns, CampaignMark{
			App:        u.spec.App.Abbr,
			Cursor:     u.cursor,
			Slices:     u.slices,
			Yield:      u.yield,
			Done:       s.Done,
			Manifested: s.Manifested,
			Corpus:     s.CorpusLen,
		})
	}
	return rec
}

// CampaignResult pairs one campaign's allocator bookkeeping with its
// cumulative campaign result.
type CampaignResult struct {
	App    string
	Fixed  bool
	Cursor int
	Slices int
	Yield  float64
	Result campaign.Result
}

// Result summarizes a fleet run.
type Result struct {
	// Slices counts allocation decisions (including resumed ones);
	// Assigned counts trials handed out against Budget.
	Slices   int
	Assigned int
	Budget   int
	// Campaigns holds one entry per campaign, in spec order.
	Campaigns []CampaignResult
}

// Manifested counts the campaigns on which the bug manifested at least
// once — the fleet's headline yield number.
func (r *Result) Manifested() int {
	n := 0
	for _, c := range r.Campaigns {
		if c.Result.Manifested > 0 {
			n++
		}
	}
	return n
}

// Finish writes the final fleet checkpoint, emits a last dashboard
// snapshot, closes the fleet journal, and finishes every child campaign.
// The fleet must not be used afterwards.
func (f *Fleet) Finish() (*Result, error) {
	res := &Result{Slices: f.slices, Assigned: f.assigned, Budget: f.cfg.GlobalTrials}
	if f.journal != nil {
		_ = f.journal.Append(f.checkpoint())
	}
	f.emitDashboard()
	firstErr := f.journal.Close()
	for _, u := range f.units {
		cres, err := u.camp.Finish()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fleet: %s: %w", u.spec.App.Abbr, err)
		}
		res.Campaigns = append(res.Campaigns, CampaignResult{
			App:    u.spec.App.Abbr,
			Fixed:  u.spec.Fixed,
			Cursor: u.cursor,
			Slices: u.slices,
			Yield:  u.yield,
			Result: *cres,
		})
	}
	return res, firstErr
}

// Run executes a fleet to completion (or to MaxSlices): New, Step until
// done, Finish.
func Run(cfg Config) (*Result, error) {
	f, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for {
		if _, ok := f.Step(); !ok {
			break
		}
	}
	return f.Finish()
}

// rand01 is the allocator's stateless RNG: decision n of a fleet seeded
// with base draws a uniform float64 in [0, 1) that depends only on (base,
// n) — no RNG state to checkpoint, nothing to drift on resume.
func rand01(base int64, n int) float64 {
	return float64(uint64(campaign.TrialSeed(base, n))>>11) / (1 << 53)
}

// randIdx draws a uniform index in [0, m) for decision n, from a stream
// independent of rand01's.
func randIdx(base int64, n, m int) int {
	return int(uint64(campaign.TrialSeed(base^0x657870 /* "exp" */, n)) % uint64(m))
}
