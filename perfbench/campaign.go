package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"time"

	"nodefz/internal/bugs"
	"nodefz/internal/campaign"
)

// campaignWorkload is a stream of whole campaigns on one app: each is
// campaign.New, its trials one RunRange(i, i+1) at a time on a single
// worker under virtual time, and Finish — in two sessions over one journal
// when sessions is 2, the second resuming the first.
type campaignWorkload struct {
	app      string
	trials   int // per campaign
	sessions int
	oracle   bool
	coverage bool
	// quota is how many campaigns the outcome counts cover; every run
	// completes at least this many, so the counts are exact for a seed.
	quota int
}

var (
	sioCampaigns = campaignWorkload{app: "SIO", trials: 400, sessions: 2, coverage: true, quota: 16}
	repCampaigns = campaignWorkload{app: "REP-elect", trials: 200, sessions: 1, oracle: true, quota: 8}
)

func (w campaignWorkload) config(seed int64, journal string, resume bool) campaign.Config {
	return campaign.Config{
		App:            bugs.ByAbbr(w.app),
		Trials:         w.trials,
		Workers:        1,
		BaseSeed:       seed,
		VirtualTime:    true,
		Oracle:         w.oracle,
		Coverage:       w.coverage,
		CheckpointPath: journal,
		Resume:         resume,
	}
}

// sessionStart returns the first trial index of session s.
func (w campaignWorkload) sessionStart(s int) int { return s * w.trials / w.sessions }

// campaignRun is one campaign's outcome.
type campaignRun struct {
	res           *campaign.Result
	firstManifest int // 1-based index of the first manifesting trial; trials+1 if none
	trials        int
	errored       int
	complete      bool
}

func never() bool { return false }

// runCampaign runs campaign seed with its journal at path, recording every
// trial in tm and, once the campaign completes, its set-up: campaign.New of
// each session, journal load and replay included. (The first trial, which
// builds the trial world, stays a trial: when it manifests it also pays
// for minimization, which would make set-up bimodal.) stop, checked before
// each trial, ends the campaign early.
func (w campaignWorkload) runCampaign(seed int64, path string, tm *timings, stop func() bool) (*campaignRun, error) {
	cr := &campaignRun{firstManifest: w.trials + 1, complete: true}
	var setup span
	for s := 0; s < w.sessions && cr.complete; s++ {
		begin := now()
		c, err := campaign.New(w.config(seed, path, s > 0))
		if err != nil {
			return nil, err
		}
		d := begin.to(now())
		setup.wall += d.wall
		setup.cpu += d.cpu
		for i := w.sessionStart(s); i < w.sessionStart(s+1); i++ {
			if stop() {
				cr.complete = false
				break
			}
			t := now()
			rep := c.RunRange(i, i+1)
			tm.trial(t)
			cr.trials++
			cr.errored += rep.Errored
			if rep.Manifested > 0 && i+1 < cr.firstManifest {
				cr.firstManifest = i + 1
			}
		}
		res, err := c.Finish()
		if err != nil {
			return nil, err
		}
		if s > 0 && cr.complete && res.Resumed != w.sessionStart(s) {
			return nil, fmt.Errorf("campaign %d: session %d resumed %d trials, want %d", seed, s, res.Resumed, w.sessionStart(s))
		}
		cr.res = res
	}
	if cr.complete {
		tm.setups = append(tm.setups, setup)
	}
	return cr, nil
}

// summary renders what a campaign found, for exact comparison between two
// runs of the same seed.
func summary(res *campaign.Result) string {
	return fmt.Sprintf("done=%d manifested=%d violating=%d errored=%d corpus=%d coverage=%d/%d/%d arms=%v minimized=%v",
		res.Done, res.Manifested, res.Violating, res.Errored, res.CorpusLen,
		res.CoveragePairs, res.CoverageDigests, res.CoverageTuples, res.Arms, res.Minimized)
}

// untraced is the campaign workload untraced: campaigns back to back for
// the run length and at least the quota.
func (w campaignWorkload) untraced(o options, r *report) error {
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "journal.jsonl")

	var (
		manifested, violating, trials int // over the quota campaigns
		firstSum, coverageSum         float64
		first                         string // campaign 0's summary
		outcomes                      []string
	)
	tm := startTimings()
	deadline := tm.start.wall.Add(o.duration)
	for c := 0; ; c++ {
		counted := c < w.quota
		if !counted && time.Now().After(deadline) {
			break
		}
		stop := func() bool { return !counted && time.Now().After(deadline) }
		cr, err := w.runCampaign(mix(o.seed, c), path, tm, stop)
		if err != nil {
			return err
		}
		r.attempted += cr.trials
		r.failed += cr.errored
		if !counted || !cr.complete {
			continue
		}
		r.check(cr.res.Done == w.trials, "campaign %d completed %d of %d trials", c, cr.res.Done, w.trials)
		trials += cr.res.Done
		manifested += cr.res.Manifested
		violating += cr.res.Violating
		firstSum += float64(cr.firstManifest)
		coverageSum += float64(cr.res.CoveragePairs + cr.res.CoverageDigests + cr.res.CoverageTuples)
		outcomes = append(outcomes, fmt.Sprintf("c%d: manifested=%d violating=%d first=%d corpus=%d coverage=%d/%d/%d",
			c, cr.res.Manifested, cr.res.Violating, cr.firstManifest, cr.res.CorpusLen,
			cr.res.CoveragePairs, cr.res.CoverageDigests, cr.res.CoverageTuples))
		if c == 0 {
			first = summary(cr.res)
		}
	}
	tm.report(r)
	q := float64(w.quota)
	r.set("manifest_frac", "frac", float64(manifested)/float64(trials))
	r.set("first_manifest_trial", "trials", firstSum/q)
	r.set("violating_frac", "frac", float64(violating)/float64(trials))
	if w.coverage {
		r.set("coverage_items", "count", coverageSum/q)
	} else {
		r.na("coverage_items", "count")
	}
	r.set("failed_frac", "frac", float64(r.failed)/float64(r.attempted))
	r.linef("set-up: campaign.New of every session, per campaign")
	r.linef("outcomes over the first %d campaigns of %d trials:", w.quota, w.trials)
	for _, l := range outcomes {
		r.linef("  %s", l)
	}
	r.check(r.failed == 0, "%d trials errored", r.failed)
	r.check(manifested > 0, "no campaign found the bug")

	// Determinism: campaign 0 again finds exactly the same.
	cr, err := w.runCampaign(mix(o.seed, 0), path, startTimings(), never)
	if err != nil {
		return err
	}
	again := summary(cr.res)
	r.check(again == first, "campaign 0 is not deterministic:\n  %s\n  %s", first, again)
	return nil
}

// traced is the campaign workload traced. A quarter of the run is the
// overhead matrix over the app's single-shot trials; the rest alternates a
// real campaign (untraced, the per-trial reference) with a mirror of the
// same campaign that times every layer (see mirror), under the CPU
// profiler. The mirror's journal must match the real one record for
// record.
func (w campaignWorkload) traced(o options, r *report) error {
	apps := []*bugs.App{bugs.ByAbbr(w.app)}
	m := runMatrix(func(b int) []trial { return block(apps, o.seed, b) }, o.duration/4, 10)
	m.report(r)

	dir, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	realPath := filepath.Join(dir, "real.jsonl")
	mirrorPath := filepath.Join(dir, "mirror.jsonl")

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("start CPU profile: %w", err)
	}
	l := newLedger()
	tm := startTimings()
	deadline := time.Now().Add(o.duration * 3 / 4)
	pairs := 0
	for c := 0; c == 0 || time.Now().Before(deadline); c++ {
		seed := mix(o.seed, c)
		cr, err := w.runCampaign(seed, realPath, tm, never)
		if err != nil {
			pprof.StopCPUProfile()
			return err
		}
		r.attempted += cr.trials
		r.failed += cr.errored
		passes := []bool{false}
		if c == 0 {
			// The first campaign is mirrored once more, untimed, to count
			// work through a metrics registry.
			passes = append(passes, true)
		}
		for _, counting := range passes {
			if err := w.runMirror(seed, mirrorPath, l, counting); err != nil {
				pprof.StopCPUProfile()
				return err
			}
			if err := sameJournal(realPath, mirrorPath); err != nil {
				r.check(false, "campaign %d: mirror diverged from the real campaign: %v", c, err)
			}
		}
		pairs++
	}
	pprof.StopCPUProfile()
	r.attempted += l.ran
	r.failed += l.errored
	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		return err
	}

	l.report(r)
	reconcile(r, mean(tm.wallUS), l.totalUS/float64(l.trials), l.spansUS()/float64(l.trials))
	setCPU(r, shares, samples)
	r.linef("campaigns: %d real/mirror pairs of %d trials", pairs, w.trials)
	r.check(r.failed == 0, "%d trials errored", r.failed)
	return nil
}

// sameJournal compares two campaign journals record for record, ignoring
// the wall-clock elapsed time each trial record carries.
func sameJournal(a, b string) error {
	ja, err := campaign.LoadJournal(a)
	if err != nil {
		return err
	}
	jb, err := campaign.LoadJournal(b)
	if err != nil {
		return err
	}
	if len(ja.Trials) != len(jb.Trials) {
		return fmt.Errorf("%d trial records against %d", len(ja.Trials), len(jb.Trials))
	}
	for i, ea := range ja.Trials {
		eb := jb.Trials[i]
		ea.ElapsedMS, eb.ElapsedMS = 0, 0
		if !reflect.DeepEqual(ea, eb) {
			return fmt.Errorf("trial %d: %+v against %+v", i, ea, eb)
		}
	}
	if !reflect.DeepEqual(ja.Coverage, jb.Coverage) {
		return fmt.Errorf("coverage records differ")
	}
	if !reflect.DeepEqual(ja.Minimized, jb.Minimized) {
		return fmt.Errorf("minimized records differ: %+v against %+v", ja.Minimized, jb.Minimized)
	}
	return nil
}
