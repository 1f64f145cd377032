package campaign

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"nodefz/internal/bugs"
	"nodefz/internal/metrics"
)

// newFakeApp builds a deterministic, loop-free bug application: schedule
// and manifestation are pure functions of the trial seed, and exec counts
// how many times each seed's trial body ran (minimization replays excluded
// by construction only when MinimizeTrials < 0).
func newFakeApp(exec map[int64]int, mu *sync.Mutex) *bugs.App {
	return &bugs.App{
		Abbr: "FAKE",
		Run: func(cfg bugs.RunConfig) bugs.Outcome {
			if exec != nil {
				mu.Lock()
				exec[cfg.Seed]++
				mu.Unlock()
			}
			rng := rand.New(rand.NewSource(cfg.Seed))
			kinds := []string{"timer", "net-read", "work-done", "close"}
			n := 4 + rng.Intn(12)
			for i := 0; i < n; i++ {
				// Draw unconditionally so the rng stream — and therefore the
				// manifestation decision — is identical under minimization
				// replays, which pass no Recorder.
				kind := kinds[rng.Intn(len(kinds))]
				if cfg.Recorder != nil {
					cfg.Recorder.Record(kind, "")
				}
				cfg.Scheduler.FilterTimers(i%2 + 1)
				cfg.Scheduler.DeferClose("h")
			}
			if rng.Intn(4) == 0 {
				return bugs.Outcome{Manifested: true, Note: "fake race"}
			}
			return bugs.Outcome{}
		},
	}
}

func TestCampaignCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	var mu sync.Mutex
	exec := make(map[int64]int)
	app := newFakeApp(exec, &mu)

	cfg := Config{
		App: app, Trials: 6, Workers: 2, BaseSeed: 42,
		CheckpointPath: path, MinimizeTrials: -1,
	}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Done != 6 || r1.Resumed != 0 || r1.Watermark != 6 {
		t.Fatalf("first run: %+v", r1)
	}

	cfg.Trials = 14
	cfg.Resume = true
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Resumed != 6 {
		t.Errorf("Resumed = %d, want 6", r2.Resumed)
	}
	if r2.Done != 14 || r2.Watermark != 14 {
		t.Errorf("resumed run: Done=%d Watermark=%d, want 14/14", r2.Done, r2.Watermark)
	}

	// No trial body may have run twice: resume must skip completed trials.
	if len(exec) != 14 {
		t.Errorf("%d distinct seeds executed, want 14", len(exec))
	}
	for seed, n := range exec {
		if n != 1 {
			t.Errorf("seed %d executed %d times", seed, n)
		}
	}

	// The journal is the source of truth: 14 trials, correct derived seeds,
	// watermark 14, and cumulative bandit statistics covering every trial.
	st, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Trials) != 14 || st.Watermark() != 14 {
		t.Fatalf("journal: %d trials, watermark %d", len(st.Trials), st.Watermark())
	}
	manifested := 0
	for i, e := range st.Trials {
		if e.Seed != TrialSeed(42, i) {
			t.Errorf("trial %d journaled seed %d, want %d", i, e.Seed, TrialSeed(42, i))
		}
		if e.Manifested {
			manifested++
		}
	}
	if manifested != r2.Manifested {
		t.Errorf("journal shows %d manifested, result says %d", manifested, r2.Manifested)
	}
	pulls := 0
	for _, a := range r2.Arms {
		pulls += a.Pulls
	}
	if pulls != 14 {
		t.Errorf("bandit pulls = %d, want 14 (6 replayed + 8 live)", pulls)
	}
}

func TestCampaignResumeAfterKillTornJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	app := newFakeApp(nil, nil)
	if _, err := Run(Config{App: app, Trials: 4, Workers: 2, BaseSeed: 7,
		CheckpointPath: path, MinimizeTrials: -1}); err != nil {
		t.Fatal(err)
	}
	// Simulate a SIGKILL mid-append: a torn, newline-less final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"trial","tri`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err := LoadJournal(path)
	if err != nil {
		t.Fatalf("torn journal must load: %v", err)
	}
	if !st.TornTail || len(st.Trials) != 4 {
		t.Fatalf("torn load: TornTail=%v trials=%d", st.TornTail, len(st.Trials))
	}

	r, err := Run(Config{App: app, Trials: 9, Workers: 2, BaseSeed: 7,
		CheckpointPath: path, Resume: true, MinimizeTrials: -1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Resumed != 4 || r.Done != 9 || r.Watermark != 9 {
		t.Fatalf("resume over torn journal: %+v", r)
	}
	// The resumed run must not have concatenated onto the torn line: the
	// final journal parses cleanly end to end.
	st, err = LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Trials) != 9 || st.Watermark() != 9 {
		t.Fatalf("post-resume journal: %d trials, watermark %d", len(st.Trials), st.Watermark())
	}
}

func TestCampaignBudgetStopsAndResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	app := newFakeApp(nil, nil)
	r1, err := Run(Config{App: app, Trials: 5, Workers: 2, BaseSeed: 3,
		Budget: time.Nanosecond, CheckpointPath: path, MinimizeTrials: -1})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Done != 0 || r1.Stopped != 5 || r1.Watermark != 0 {
		t.Fatalf("budget stop: %+v", r1)
	}
	r2, err := Run(Config{App: app, Trials: 5, Workers: 2, BaseSeed: 3,
		CheckpointPath: path, Resume: true, MinimizeTrials: -1})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Done != 5 || r2.Watermark != 5 {
		t.Fatalf("resume after budget stop: %+v", r2)
	}
}

func TestCampaignMinimizesAManifestingTrial(t *testing.T) {
	app := newFakeApp(nil, nil)
	res, err := Run(Config{App: app, Trials: 16, Workers: 2, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Manifested == 0 {
		t.Fatal("fixture produced no manifestation; pick a different BaseSeed")
	}
	if len(res.Minimized) != 1 {
		t.Fatalf("MinimizeTrials defaults to 1, got %d minimizations", len(res.Minimized))
	}
	m := res.Minimized[0]
	if !m.Reproduced {
		t.Errorf("fake app manifests deterministically per seed; minimization must reproduce: %+v", m)
	}
	if m.Minimal != len(m.Points) {
		t.Errorf("Minimal=%d inconsistent with %d points", m.Minimal, len(m.Points))
	}
}

func TestCampaignMetricsStream(t *testing.T) {
	var buf bytes.Buffer
	w := metrics.NewJSONLWriter(&buf)
	app := newFakeApp(nil, nil)
	res, err := Run(Config{App: app, Trials: 5, Workers: 2, BaseSeed: 9,
		MinimizeTrials: -1, Metrics: w})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := metrics.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != res.Done {
		t.Fatalf("%d metrics records for %d trials", len(recs), res.Done)
	}
	for _, r := range recs {
		if r.Bug != "FAKE" || len(r.Mode) < len("campaign/") || r.Mode[:len("campaign/")] != "campaign/" {
			t.Fatalf("unexpected record identity: bug=%q mode=%q", r.Bug, r.Mode)
		}
		if len(r.Schedule) == 0 {
			t.Fatal("metrics record missing type schedule")
		}
	}
}

// TestCampaignPanickingTrialReleasesArm: a trial that panics must not take
// down the campaign, must not journal a completion (resume re-runs it), and
// must release its provisional bandit pull so the arm's mean is not
// permanently deflated by pulls that never earned reward.
func TestCampaignPanickingTrialReleasesArm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	app := &bugs.App{
		Abbr: "PANIC",
		Run: func(cfg bugs.RunConfig) bugs.Outcome {
			panic("trial exploded")
		},
	}
	res, err := Run(Config{App: app, Trials: 6, Workers: 2, BaseSeed: 5,
		CheckpointPath: path, MinimizeTrials: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errored != 6 || res.Done != 0 || res.Watermark != 0 {
		t.Fatalf("panicking campaign: %+v", res)
	}
	for _, a := range res.Arms {
		if a.Pulls != 0 || a.Reward != 0 {
			t.Fatalf("errored trials left phantom bandit state: %+v", res.Arms)
		}
	}
	st, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Trials) != 0 {
		t.Fatalf("errored trials must not journal completions: %d trial records", len(st.Trials))
	}
}

// TestCampaignCoverageResumeRoundTrip: a coverage campaign journals its
// coverage contributions and a resume replays them — the resumed run's
// global coverage map contains at least everything the first run found, and
// resumed trials are not re-run.
func TestCampaignCoverageResumeRoundTrip(t *testing.T) {
	app := bugs.ByAbbr("SIO")
	if app == nil {
		t.Fatal("SIO missing from corpus")
	}
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	cfg := Config{App: app, Trials: 8, Workers: 2, BaseSeed: 11,
		Coverage: true, CheckpointPath: path, MinimizeTrials: -1}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CoveragePairs == 0 && r1.CoverageDigests == 0 {
		t.Fatalf("coverage campaign found no coverage at all: %+v", r1)
	}
	st, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Coverage) == 0 {
		t.Fatal("no coverage records journaled")
	}

	cfg.Trials = 16
	cfg.Resume = true
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Resumed != 8 || r2.Done != 16 || r2.Watermark != 16 {
		t.Fatalf("coverage resume: %+v", r2)
	}
	if r2.CoverageDigests < r1.CoverageDigests || r2.CoveragePairs < r1.CoveragePairs ||
		r2.CoverageTuples < r1.CoverageTuples {
		t.Fatalf("resume lost coverage state: first %d/%d/%d, resumed %d/%d/%d",
			r1.CoveragePairs, r1.CoverageDigests, r1.CoverageTuples,
			r2.CoveragePairs, r2.CoverageDigests, r2.CoverageTuples)
	}
}

// TestCampaignResumePreCoverageJournal is the backward-compat gate: a
// journal written before coverage feedback existed (no "coverage" records,
// no new_coverage fields — the committed fixture) must resume cleanly with
// coverage enabled, starting the coverage map empty.
func TestCampaignResumePreCoverageJournal(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "precoverage_sio.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := LoadJournal(path)
	if err != nil {
		t.Fatalf("pre-coverage fixture must load: %v", err)
	}
	if len(st.Trials) == 0 {
		t.Fatal("fixture journal holds no trials; regenerate it")
	}
	if len(st.Coverage) != 0 {
		t.Fatal("fixture journal is not pre-coverage; regenerate it without -coverage")
	}
	app := bugs.ByAbbr("SIO")
	if app == nil {
		t.Fatal("SIO missing from corpus")
	}
	res, err := Run(Config{App: app, Trials: len(st.Trials) + 8, Workers: 2,
		BaseSeed: 11, Coverage: true,
		CheckpointPath: path, Resume: true, MinimizeTrials: -1})
	if err != nil {
		t.Fatalf("resume from pre-coverage journal with coverage on: %v", err)
	}
	if res.Resumed != len(st.Trials) || res.Done != res.Trials {
		t.Fatalf("pre-coverage resume: %+v", res)
	}
	// The new trials run greybox: they populate the coverage map from zero.
	if res.CoverageDigests == 0 {
		t.Fatalf("no coverage discovered by post-upgrade trials: %+v", res)
	}
}

func TestCampaignConfigErrors(t *testing.T) {
	if _, err := Run(Config{Trials: 1}); err == nil {
		t.Error("nil App must error")
	}
	app := newFakeApp(nil, nil)
	if _, err := Run(Config{App: app}); err == nil {
		t.Error("zero Trials must error")
	}
	if _, err := Run(Config{App: app, Trials: 1, Fixed: true}); err == nil {
		t.Error("Fixed without RunFixed must error")
	}
}

// TestCampaignParallelThroughput is the acceptance benchmark: workers=4
// must at least double trial throughput over workers=1. Campaign trials run
// in virtual time and take microseconds of CPU, too little to show
// parallelism on a small machine, so this app's trial sleeps a fixed wall
// time instead: the elapsed-time ratio then counts how many trials the
// executor runs at once, robustly even under CPU contention.
func TestCampaignParallelThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing benchmark; skipped in -short")
	}
	const (
		trials = 16
		sleep  = 20 * time.Millisecond
	)
	app := &bugs.App{
		Abbr: "SLEEP",
		Run: func(bugs.RunConfig) bugs.Outcome {
			time.Sleep(sleep)
			return bugs.Outcome{}
		},
	}
	elapsed := func(workers int) time.Duration {
		start := time.Now()
		if _, err := Run(Config{App: app, Trials: trials, Workers: workers,
			BaseSeed: 11, MinimizeTrials: -1}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	seq := elapsed(1)
	par := elapsed(4)
	t.Logf("workers=1: %v, workers=4: %v (%.1fx)", seq, par, float64(seq)/float64(par))
	if par*2 > seq {
		t.Errorf("workers=4 did not reach 2x throughput: sequential %v, parallel %v", seq, par)
	}
}

// TestMetricsLeaveCampaignUnchanged: exporting metrics only observes. A
// campaign run with a metrics writer must journal exactly what the same
// campaign journals without one — every trial, coverage, minimized and
// checkpoint record — once the wall-clock elapsed_ms is masked. It runs a
// coverage campaign and a cluster oracle campaign, with one worker so the
// journal order is fixed.
func TestMetricsLeaveCampaignUnchanged(t *testing.T) {
	elapsed := regexp.MustCompile(`"elapsed_ms":\d+`)
	journal := func(cfg Config, w *metrics.JSONLWriter) []string {
		t.Helper()
		cfg.Metrics = w
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "ckpt.jsonl")
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(cfg.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(elapsed.ReplaceAllString(string(data), `"elapsed_ms":0`), "\n")
	}
	for _, c := range []struct {
		app      string
		coverage bool
		oracle   bool
	}{
		{"SIO", true, false},
		{"REP-elect", false, true},
	} {
		t.Run(c.app, func(t *testing.T) {
			cfg := Config{App: bugs.ByAbbr(c.app), Trials: 40, Workers: 1, BaseSeed: 7,
				Coverage: c.coverage, Oracle: c.oracle}
			off := journal(cfg, nil)
			var exported bytes.Buffer
			on := journal(cfg, metrics.NewJSONLWriter(&exported))
			if exported.Len() == 0 {
				t.Fatal("metrics writer received nothing — comparison is vacuous")
			}
			if len(on) != len(off) {
				t.Fatalf("journal has %d lines with metrics, %d without", len(on), len(off))
			}
			for i := range off {
				if on[i] != off[i] {
					t.Fatalf("journal line %d differs with metrics on:\noff: %s\non:  %s", i+1, off[i], on[i])
				}
			}
		})
	}
}
