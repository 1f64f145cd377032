package harness

import (
	"testing"

	"nodefz/internal/bugs"
)

// TestGuidedCalibration checks the §5.2.3 "race against time": on KUE-2014,
// guided fuzzing manifests more often than each of the other three
// configurations (paper: 3/50 -> 13/50). Trials run in virtual time, so the
// counts are exact per seed (nodeV 5, nodeNFZ 5, nodeFZ 9, guided 22 of 25).
func TestGuidedCalibration(t *testing.T) {
	virtualTrials(t)

	app := bugs.ByAbbr("KUE-2014")
	const trials, baseSeed = 25, 500
	guided := ReproRate(app, ModeGuided, trials, baseSeed).Manifested
	t.Logf("%-15s %d/%d", ModeGuided, guided, trials)
	for _, m := range []Mode{ModeVanilla, ModeNFZ, ModeFZ} {
		n := ReproRate(app, m, trials, baseSeed).Manifested
		t.Logf("%-15s %d/%d", m, n, trials)
		if guided <= n {
			t.Errorf("guided manifested %d/%d, not more than %s's %d", guided, trials, m, n)
		}
	}
}

// TestFixedVariantsNeverManifest is the corpus-level correctness check: the
// paper's patches eliminate every manifestation even under the fuzzer. Every
// patched variant runs under nodeV, nodeNFZ and nodeFZ over seeds 0-299
// (0-29 under -short) in virtual time, so a manifestation is a pure function
// of its seed.
func TestFixedVariantsNeverManifest(t *testing.T) {
	virtualTrials(t)

	trials := 300
	if testing.Short() {
		trials = 30
	}
	for _, app := range bugs.All() {
		if app.RunFixed == nil || app.Abbr == "KUE-2014" {
			continue // KUE-2014's "fix" disables the assertion
		}
		for _, mode := range Fig6Modes() {
			if r := FixedRate(app, mode, trials, 0); r.Manifested > 0 {
				t.Errorf("%s: fixed variant manifested %d/%d under %s (%s)", app.Abbr, r.Manifested, r.Trials, mode, r.FirstNote)
			}
		}
	}
	// Witnesses: at these seeds SIO-novel's test 1 setup connection reaches
	// the server inside test 2's window. It is not the leaked reconnect, so
	// it must not count as a stray.
	for _, seed := range []int64{3528, 3658} {
		if r := FixedRate(bugs.ByAbbr("SIO-novel"), ModeFZ, 1, seed); r.Manifested > 0 {
			t.Errorf("SIO-novel: fixed variant manifested under %s at seed %d (%s)", ModeFZ, seed, r.FirstNote)
		}
	}
}
