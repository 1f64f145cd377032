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
	// ReproRate draws each trial's clock from the process-wide default; a
	// top-level test runs alone, so switching it here is safe.
	wasVirtual := bugs.TrialClock() != nil
	bugs.SetVirtualTime(true)
	defer bugs.SetVirtualTime(wasVirtual)

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
// paper's patches eliminate every manifestation even under the fuzzer.
func TestFixedVariantsNeverManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	for _, app := range bugs.All() {
		if app.RunFixed == nil || app.Abbr == "KUE-2014" {
			continue
		}
		r := FixedRate(app, ModeFZ, 10, 3000)
		if r.Manifested > 0 {
			t.Errorf("%s: fixed variant manifested %d/%d (%s)", app.Abbr, r.Manifested, r.Trials, r.FirstNote)
		}
	}
}
