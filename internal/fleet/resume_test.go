package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// fleetCheckpoints extracts every fleet-checkpoint record from a fleet
// journal, in order.
func fleetCheckpoints(t *testing.T, path string) []CheckpointRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var cps []CheckpointRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || !bytes.Contains(line, []byte(`"fleet-checkpoint"`)) {
			continue
		}
		var rec CheckpointRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("%s: bad checkpoint line: %v", path, err)
		}
		cps = append(cps, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(cps) == 0 {
		t.Fatalf("%s: no fleet-checkpoint records", path)
	}
	return cps
}

func fleetCfg(t *testing.T, dir string) Config {
	return Config{
		Specs:        specsFor(t, "SIO", "KUE", "MGS", "GHO", "WPT"),
		GlobalTrials: 120,
		SliceTrials:  5,
		BaseSeed:     11,
		Oracle:       true,
		Coverage:     true,
		Dir:          dir,
	}
}

// TestFleetResumeBitIdentical is the kill-safety acceptance gate: a fleet
// killed mid-run and resumed must converge to journal watermarks
// bit-identical to an uninterrupted run — same slice count, same assigned
// total, same per-campaign cursors, slice counts, decayed yields (exact
// float equality), corpus sizes, and manifestation counts.
//
// The kill is simulated in its observable entirety: the run is stopped
// between slices (MaxSlices), then both the fleet journal and a child
// campaign journal get a half-written final line with no trailing newline —
// exactly what a kill -9 mid-append leaves behind.
func TestFleetResumeBitIdentical(t *testing.T) {
	// Leg 1: the uninterrupted reference run.
	straightDir := t.TempDir()
	resStraight, err := Run(fleetCfg(t, straightDir))
	if err != nil {
		t.Fatal(err)
	}
	if resStraight.Assigned != 120 {
		t.Fatalf("straight run assigned %d, want 120", resStraight.Assigned)
	}

	// Leg 2: run 7 slices, get killed, resume, get killed again, resume to
	// the end. Two interruptions at different points catch replay bugs a
	// single one can miss.
	killedDir := t.TempDir()
	cfg := fleetCfg(t, killedDir)
	cfg.MaxSlices = 7
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	tearTail := func(name string) {
		t.Helper()
		path := filepath.Join(killedDir, name)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"type":"slice","slice":99,"app":"SIO","fr`); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	tearTail("fleet.jsonl")
	tearTail("SIO.jsonl")

	cfg = fleetCfg(t, killedDir)
	cfg.Resume = true
	cfg.MaxSlices = 5
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	tearTail("fleet.jsonl")
	tearTail("KUE.jsonl")

	cfg = fleetCfg(t, killedDir)
	cfg.Resume = true
	resResumed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The in-memory results must agree completely.
	if resResumed.Slices != resStraight.Slices || resResumed.Assigned != resStraight.Assigned {
		t.Fatalf("resumed fleet: %d slices / %d assigned, straight: %d / %d",
			resResumed.Slices, resResumed.Assigned, resStraight.Slices, resStraight.Assigned)
	}
	for i := range resStraight.Campaigns {
		a, b := resStraight.Campaigns[i], resResumed.Campaigns[i]
		// Result.Resumed counts trials restored from the journal by this
		// process — definitionally different after a kill; everything else
		// must match bit for bit.
		a.Result.Resumed, b.Result.Resumed = 0, 0
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if !bytes.Equal(aj, bj) {
			t.Errorf("campaign %s diverged after resume:\nstraight: %s\nresumed:  %s", a.App, aj, bj)
		}
	}

	// And the final journaled checkpoints must be bit-identical watermarks.
	cpStraight := fleetCheckpoints(t, filepath.Join(straightDir, "fleet.jsonl"))
	cpResumed := fleetCheckpoints(t, filepath.Join(killedDir, "fleet.jsonl"))
	last := func(cps []CheckpointRecord) CheckpointRecord { return cps[len(cps)-1] }
	sj, _ := json.Marshal(last(cpStraight))
	rj, _ := json.Marshal(last(cpResumed))
	if !bytes.Equal(sj, rj) {
		t.Fatalf("final checkpoints differ:\nstraight: %s\nresumed:  %s", sj, rj)
	}

	// The resumed journal must still load cleanly end to end (the torn
	// tails were truncated on reopen, not left embedded mid-file).
	st, err := loadJournal(filepath.Join(killedDir, "fleet.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if st.TornTail {
		t.Fatal("resumed fleet journal still has a torn tail")
	}
	if len(st.Slices) != resStraight.Slices {
		t.Fatalf("resumed journal holds %d slice records, want %d", len(st.Slices), resStraight.Slices)
	}
}

// TestFleetResumeAfterCompletion resumes a finished fleet: nothing to do,
// nothing assigned twice, watermarks unchanged.
func TestFleetResumeAfterCompletion(t *testing.T) {
	dir := t.TempDir()
	resA, err := Run(fleetCfg(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fleetCfg(t, dir)
	cfg.Resume = true
	resB, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resB.Slices != resA.Slices || resB.Assigned != resA.Assigned {
		t.Fatalf("no-op resume moved watermarks: %d/%d -> %d/%d",
			resA.Slices, resA.Assigned, resB.Slices, resB.Assigned)
	}
	for i := range resA.Campaigns {
		a, b := resA.Campaigns[i], resB.Campaigns[i]
		a.Result.Resumed, b.Result.Resumed = 0, 0
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if !bytes.Equal(aj, bj) {
			t.Fatalf("campaign %s changed across a no-op resume:\n%s\n%s",
				resA.Campaigns[i].App, aj, bj)
		}
	}
}

// TestFleetJournalRejectsUnknownCampaign pins the error path: resuming with
// a journal naming an app outside the fleet must fail loudly, not silently
// misattribute trials.
func TestFleetJournalRejectsUnknownCampaign(t *testing.T) {
	dir := t.TempDir()
	cfg := fleetCfg(t, dir)
	cfg.MaxSlices = 3
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg = Config{
		Specs:        specsFor(t, "SIO", "KUE"), // GHO/MGS/WPT missing
		GlobalTrials: 120,
		SliceTrials:  5,
		BaseSeed:     11,
		Dir:          dir,
		Resume:       true,
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("resume with a mismatched spec list succeeded; want an error")
	}
}
