package harness

import (
	"bytes"
	"strings"
	"testing"

	"nodefz/internal/bugs"
)

func TestModeStringsAndParse(t *testing.T) {
	for _, m := range []Mode{ModeVanilla, ModeNFZ, ModeFZ, ModeGuided} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode accepted bogus mode")
	}
	if Mode(99).String() == "" {
		t.Error("unknown mode has empty string")
	}
}

func TestSchedulerForModes(t *testing.T) {
	if s := SchedulerFor(ModeVanilla, 1); s.Serialize() {
		t.Error("vanilla scheduler serializes")
	}
	for _, m := range []Mode{ModeNFZ, ModeFZ, ModeGuided} {
		if s := SchedulerFor(m, 1); !s.Serialize() {
			t.Errorf("%v: fuzzer scheduler does not serialize", m)
		}
	}
	if len(Fig6Modes()) != 3 {
		t.Error("Fig6Modes should be the three compared configurations")
	}
}

func TestRateFraction(t *testing.T) {
	if (Rate{}).Fraction() != 0 {
		t.Error("empty rate fraction != 0")
	}
	if got := (Rate{Manifested: 1, Trials: 4}).Fraction(); got != 0.25 {
		t.Errorf("fraction = %v", got)
	}
}

// TestReproRateCounts checks ReproRate's bookkeeping. Trials run in virtual
// time, so the count is a pure function of the seeds and a second call must
// agree with the first.
func TestReproRateCounts(t *testing.T) {
	virtualTrials(t)
	app := bugs.ByAbbr("KUE")
	r := ReproRate(app, ModeFZ, 6, 42)
	if again := ReproRate(app, ModeFZ, 6, 42); again != r {
		t.Fatalf("same seeds, different rates: %+v then %+v", r, again)
	}
	if r.Trials != 6 {
		t.Fatalf("trials = %d, want 6", r.Trials)
	}
	if r.Manifested < 0 || r.Manifested > r.Trials {
		t.Fatalf("manifested = %d out of range", r.Manifested)
	}
	if r.Manifested > 0 && r.FirstNote == "" {
		t.Error("manifested but no note captured")
	}
}

func TestFixedRateNilRunFixed(t *testing.T) {
	app := &bugs.App{Abbr: "X"}
	if r := FixedRate(app, ModeFZ, 5, 1); r.Trials != 0 {
		t.Error("FixedRate on nil RunFixed should be empty")
	}
}

func TestFig6SmallBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	rows := Fig6(2, 7)
	if len(rows) != len(bugs.Fig6Set()) {
		t.Fatalf("rows = %d", len(rows))
	}
	var buf bytes.Buffer
	WriteFig6(&buf, rows)
	out := buf.String()
	for _, want := range []string{"Figure 6", "nodeV", "nodeNFZ", "nodeFZ", "GHO", "KUE"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig6 output missing %q", want)
		}
	}
}

// TestFig7SmallBudget checks the Figure 7 shape: on every module the
// fuzzer's type schedules lie further apart than nodeNFZ's (at seed 7, SIO
// 0.111 -> 0.308, MKD 0.083 -> 0.256). Suites run in virtual time, so the
// distances are exact per seed; `fzbench -exp fig7` gives the wall-clock
// figure. Run with -v to see the table.
func TestFig7SmallBudget(t *testing.T) {
	virtualTrials(t)

	rows := Fig7(3, 2000, 7)
	if len(rows) != len(Fig7Modules) {
		t.Fatalf("rows = %d", len(rows))
	}
	t.Logf("%-8s %8s %8s", "module", "nodeNFZ", "nodeFZ")
	for _, row := range rows {
		t.Logf("%-8s %8.3f %8.3f", row.Abbr, row.NFZ, row.FZ)
		if row.NFZ < 0 || row.FZ > 1 || row.FZ <= row.NFZ {
			t.Errorf("%s: nodeFZ NLD %.3f, want above nodeNFZ's %.3f and within [0, 1]", row.Abbr, row.FZ, row.NFZ)
		}
	}
	var buf bytes.Buffer
	WriteFig7(&buf, rows)
	if !strings.Contains(buf.String(), "Levenshtein") {
		t.Error("fig7 output malformed")
	}
}

func TestFig8SmallBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	rows := Fig8(2, 7)
	for _, row := range rows {
		if row.Mean[ModeVanilla] <= 0 {
			t.Errorf("%s: zero vanilla time", row.Abbr)
		}
		if row.Ratio[ModeVanilla] != 1.0 {
			t.Errorf("%s: vanilla ratio = %v, want 1", row.Abbr, row.Ratio[ModeVanilla])
		}
	}
	var buf bytes.Buffer
	WriteFig8(&buf, rows)
	if !strings.Contains(buf.String(), "overhead") {
		t.Error("fig8 output malformed")
	}
}

func TestTables(t *testing.T) {
	var buf bytes.Buffer
	WriteTable1(&buf)
	for _, want := range []string{"etherpad-lite", "mongoose", "43K", "23.3M"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table 1 missing %q", want)
		}
	}
	buf.Reset()
	WriteTable2(&buf)
	for _, want := range []string{"NW-Timer", "(C)OV", "Database", "async barrier", "PR 2721"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table 2 missing %q", want)
		}
	}
	if strings.Contains(buf.String(), "KUE-2014") {
		t.Error("table 2 should not include the race against time")
	}
	buf.Reset()
	WriteTable3(&buf)
	for _, want := range []string{"-1 (unlimited)", "10%", "20%", "5%", "100µs", "5ms"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table 3 missing %q", want)
		}
	}
}

func TestFidelitySmall(t *testing.T) {
	virtualTrials(t)
	res := Fidelity(ModeFZ, 2)
	if len(res.Failures) != 0 {
		t.Fatalf("fidelity failures: %v", res.Failures)
	}
	var buf bytes.Buffer
	WriteFidelity(&buf, res)
	if !strings.Contains(buf.String(), "PASS") {
		t.Error("fidelity output should report PASS")
	}
}

func TestGuidedSmall(t *testing.T) {
	virtualTrials(t)
	res := Guided(6, 77)
	if res.Rates[ModeGuided].Trials != 6 {
		t.Fatalf("trials = %d", res.Rates[ModeGuided].Trials)
	}
	var buf bytes.Buffer
	WriteGuided(&buf, res)
	if !strings.Contains(buf.String(), "KUE-2014") {
		t.Error("guided output malformed")
	}
}
