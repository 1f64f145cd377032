package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"nodefz/internal/bugs"
)

// sliceTestConfig is a deterministic single-worker campaign over a real bug
// app — the regime in which sliced and monolithic execution must agree
// exactly.
func sliceTestConfig(trials int) Config {
	return Config{
		App:            bugs.ByAbbr("SIO"),
		Trials:         trials,
		Workers:        1,
		BaseSeed:       1234,
		Oracle:         true,
		Coverage:       true,
		MinimizeTrials: -1,
	}
}

// TestCampaignRunEqualsRunRangeChunks is the schedulable-unit contract: a
// campaign driven as a sequence of arbitrary RunRange slices must end in
// exactly the state of a monolithic Run — same corpus, same bandit, same
// manifestations. This is what lets the fleet pause and resume campaigns in
// K-trial slices without changing any campaign's outcome.
func TestCampaignRunEqualsRunRangeChunks(t *testing.T) {
	const trials = 30
	whole, err := Run(sliceTestConfig(trials))
	if err != nil {
		t.Fatal(err)
	}

	c, err := New(sliceTestConfig(trials))
	if err != nil {
		t.Fatal(err)
	}
	// Uneven, non-aligned chunks on purpose.
	var reports []SliceReport
	for _, r := range [][2]int{{0, 7}, {7, 8}, {8, 20}, {20, 30}} {
		reports = append(reports, c.RunRange(r[0], r[1]))
	}
	sliced, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}

	wj, _ := json.Marshal(whole)
	sj, _ := json.Marshal(sliced)
	if string(wj) != string(sj) {
		t.Fatalf("sliced campaign diverged from monolithic Run:\nwhole:  %s\nsliced: %s", wj, sj)
	}

	ran := 0
	for _, rep := range reports {
		ran += rep.Ran
	}
	if ran != trials {
		t.Fatalf("chunks ran %d trials, want %d", ran, trials)
	}
}

// TestCampaignResumeEqualsStraightRun: a campaign paused after 45 trials and
// resumed from its journal ends exactly where a straight run ends — the
// same corpus members, the same Result and the same final checkpoint
// record. The campaign is the fleet's KUE child at seed 7, which admits
// schedules below the novelty threshold for new coverage; resume must
// re-admit them although its coverage map is seeded only afterwards.
func TestCampaignResumeEqualsStraightRun(t *testing.T) {
	const trials, split = 60, 45
	dir := t.TempDir()
	open := func(path string, resume bool) *Campaign {
		c, err := New(Config{
			App: bugs.ByAbbr("KUE"), Trials: trials, Workers: 1,
			BaseSeed: TrialSeed(7^0x666c656574, 1),
			Oracle:   true, Coverage: true, MinimizeTrials: -1,
			CheckpointPath: path, Resume: resume,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	finish := func(c *Campaign) (*Result, []string) {
		res, err := c.Finish()
		if err != nil {
			t.Fatal(err)
		}
		d := c.corpus.Digests()
		sort.Strings(d)
		return res, d
	}
	lastCheckpoint := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		last := ""
		for _, line := range strings.Split(string(data), "\n") {
			if strings.Contains(line, `"type":"checkpoint"`) {
				last = line
			}
		}
		return last
	}

	straightPath := filepath.Join(dir, "straight.jsonl")
	c := open(straightPath, false)
	c.RunRange(0, trials)
	straight, straightCorpus := finish(c)

	resumedPath := filepath.Join(dir, "resumed.jsonl")
	c = open(resumedPath, false)
	c.RunRange(0, split)
	finish(c)
	c = open(resumedPath, true)
	c.RunRange(split, trials)
	resumed, resumedCorpus := finish(c)

	if resumed.Resumed != split {
		t.Fatalf("Resumed = %d, want %d", resumed.Resumed, split)
	}
	resumed.Resumed = 0
	if !reflect.DeepEqual(resumedCorpus, straightCorpus) {
		t.Errorf("resumed corpus differs: %d members against %d straight", len(resumedCorpus), len(straightCorpus))
	}
	wj, _ := json.Marshal(straight)
	rj, _ := json.Marshal(resumed)
	if string(wj) != string(rj) {
		t.Errorf("resumed result differs:\nstraight: %s\nresumed:  %s", wj, rj)
	}
	if a, b := lastCheckpoint(straightPath), lastCheckpoint(resumedPath); a == "" || a != b {
		t.Errorf("final checkpoint records differ:\nstraight: %s\nresumed:  %s", a, b)
	}
}

// TestCampaignResumeAfterCutBeforeCoverage cuts a coverage campaign's
// journal right after a trial record whose coverage record follows it, as
// a kill between the two lines would, and resumes. It does so at every
// such trial. The cut trial must run again: restored without its coverage
// record, it would let later trials earn new-coverage reward for items the
// uninterrupted campaign had already seen, and the runs would diverge.
func TestCampaignResumeAfterCutBeforeCoverage(t *testing.T) {
	const trials = 200
	dir := t.TempDir()
	cfg := sliceTestConfig(trials)
	cfg.BaseSeed = 3
	cfg.CheckpointPath = filepath.Join(dir, "straight.jsonl")
	straight, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wj, _ := json.Marshal(straight)
	data, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	trialsBefore, cuts := 0, 0
	for i := 0; i+1 < len(lines); i++ {
		if !bytes.Contains(lines[i], []byte(`"type":"trial"`)) {
			continue
		}
		if !bytes.Contains(lines[i+1], []byte(`"type":"coverage"`)) {
			trialsBefore++
			continue
		}
		cuts++
		cut := cfg
		cut.CheckpointPath = filepath.Join(dir, fmt.Sprintf("cut%d.jsonl", i+1))
		cut.Resume = true
		if err := os.WriteFile(cut.CheckpointPath, bytes.Join(lines[:i+1], nil), 0o644); err != nil {
			t.Fatal(err)
		}
		resumed, err := Run(cut)
		if err != nil {
			t.Fatal(err)
		}
		if resumed.Resumed != trialsBefore {
			t.Errorf("cut after line %d: Resumed = %d, want %d (the cut trial runs again)",
				i+1, resumed.Resumed, trialsBefore)
		}
		resumed.Resumed = 0
		if rj, _ := json.Marshal(resumed); string(rj) != string(wj) {
			t.Fatalf("cut after line %d: resumed result differs:\nstraight: %s\nresumed:  %s", i+1, wj, rj)
		}
		trialsBefore++
		if testing.Short() && cuts == 3 {
			break
		}
	}
	if cuts == 0 {
		t.Fatal("the campaign journaled no coverage records")
	}
}

// TestCampaignRunRangeSkipsCompleted re-runs an already-executed range: no
// trial runs twice, and the report still counts the range's yield.
func TestCampaignRunRangeSkipsCompleted(t *testing.T) {
	c, err := New(sliceTestConfig(20))
	if err != nil {
		t.Fatal(err)
	}
	first := c.RunRange(0, 10)
	if first.Ran != 10 || first.Skipped != 0 {
		t.Fatalf("first pass: ran %d skipped %d, want 10/0", first.Ran, first.Skipped)
	}
	again := c.RunRange(0, 10)
	if again.Ran != 0 || again.Skipped != 10 {
		t.Fatalf("second pass: ran %d skipped %d, want 0/10", again.Ran, again.Skipped)
	}
	// The range yield is a pure function of the range, not of who ran it.
	if again.Admitted != first.Admitted || again.Violating != first.Violating ||
		again.NewCov != first.NewCov || again.Manifested != first.Manifested {
		t.Fatalf("yield counters changed on re-run:\nfirst: %+v\nagain: %+v", first, again)
	}
	if first.Yield() != again.Yield() {
		t.Fatalf("yield changed on re-run: %v vs %v", first.Yield(), again.Yield())
	}
	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestCampaignSnapshotMidRun checks Snapshot exposes a consistent view
// between slices.
func TestCampaignSnapshotMidRun(t *testing.T) {
	c, err := New(sliceTestConfig(20))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot(); got.Done != 0 {
		t.Fatalf("fresh campaign Done = %d, want 0", got.Done)
	}
	c.RunRange(0, 8)
	mid := c.Snapshot()
	if mid.Done != 8 {
		t.Fatalf("after one slice Done = %d, want 8", mid.Done)
	}
	c.RunRange(8, 20)
	fin, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if fin.Done != 20 {
		t.Fatalf("final Done = %d, want 20", fin.Done)
	}
	if mid.CorpusLen > fin.CorpusLen {
		t.Fatalf("corpus shrank across slices: %d -> %d", mid.CorpusLen, fin.CorpusLen)
	}
}
