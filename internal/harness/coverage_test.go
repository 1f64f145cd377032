package harness

import (
	"encoding/json"
	"sort"
	"testing"

	"nodefz/internal/bugs"
	"nodefz/internal/campaign"
)

// TestCoverageDigestDeterministic is the determinism gate for the greybox
// feedback signal: under a virtual clock the CoverageDigest must be a pure
// function of (app, mode, seed) — bit-identical across runs in all three
// Figure 6 configurations. A nondeterministic digest would make corpus
// admission and bandit reward depend on wall-clock accidents, and a resumed
// campaign would disagree with itself.
func TestCoverageDigestDeterministic(t *testing.T) {
	seeds := 5
	if testing.Short() {
		seeds = 2
	}
	// REP-elect and REP-replay put the whole cluster tier under the gate:
	// several loops and the delivery engine feeding one digest, including a
	// kill→restart trial (REP-replay), must still be a pure function of the
	// seed.
	for _, abbr := range []string{"SIO", "MGS", "KUE", "REP-elect", "REP-replay"} {
		app := bugs.ByAbbr(abbr)
		if app == nil {
			t.Fatalf("%s missing from registry", abbr)
		}
		t.Run(abbr, func(t *testing.T) {
			for _, mode := range Fig6Modes() {
				for s := 0; s < seeds; s++ {
					seed := int64(211*s + 13)
					tr1, _ := oracleTrial(app.Run, mode, seed)
					tr2, _ := oracleTrial(app.Run, mode, seed)
					b1, err := json.Marshal(tr1.Coverage())
					if err != nil {
						t.Fatal(err)
					}
					b2, err := json.Marshal(tr2.Coverage())
					if err != nil {
						t.Fatal(err)
					}
					if string(b1) != string(b2) {
						t.Fatalf("%s under %s seed %d: coverage digest differs between identical runs:\n%s\n%s",
							abbr, mode, seed, b1, b2)
					}
				}
			}
		})
	}
}

// firstManifest runs a fixed-budget campaign and returns the smallest trial
// index that manifested, or budget when none did. Workers is 1 and time is
// virtual, so the result is a pure function of (app, baseSeed, coverage).
func firstManifest(t *testing.T, app *bugs.App, baseSeed int64, coverage bool, budget int) int {
	t.Helper()
	first := budget
	_, err := campaign.Run(campaign.Config{
		App: app, Trials: budget, Workers: 1, BaseSeed: baseSeed,
		Coverage: coverage, MinimizeTrials: -1,
		Progress: func(e campaign.TrialEntry) {
			if e.Manifested && e.Trial < first {
				first = e.Trial
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return first
}

func median(xs []int) int {
	s := append([]int(nil), xs...)
	sort.Ints(s)
	return s[len(s)/2]
}

// TestCoverageFeedbackFirstManifest is the acceptance gate for greybox
// feedback: over a spread of base seeds and a fixed trial budget, the
// coverage-fed campaign must reach its first manifesting trial in no more
// trials (median) than the novelty-only baseline on at least half of the
// bug variants tested (3 of 6 in full mode; short mode runs a 3-variant,
// 5-seed smoke at the same proportion — small-sample medians are too noisy
// to hold the smoke to a stricter bar than the full gate). Both campaigns
// run single-worker under virtual time, so the comparison is deterministic
// and reproducible; the EXPERIMENTS.md coverage table is this test's
// logged output.
func TestCoverageFeedbackFirstManifest(t *testing.T) {
	variants := []string{"SIO", "MGS", "KUE", "GHO", "FPS", "EPL"}
	seeds, budget := 10, 30
	if testing.Short() {
		variants = []string{"SIO", "MGS", "KUE"}
		seeds, budget = 5, 20
	}
	noWorse := 0
	for _, abbr := range variants {
		app := bugs.ByAbbr(abbr)
		if app == nil {
			t.Fatalf("%s missing from registry", abbr)
		}
		var nov, cov []int
		for s := 0; s < seeds; s++ {
			base := int64(1000*s + 21)
			nov = append(nov, firstManifest(t, app, base, false, budget))
			cov = append(cov, firstManifest(t, app, base, true, budget))
		}
		nm, cm := median(nov), median(cov)
		ok := cm <= nm
		if ok {
			noWorse++
		}
		t.Logf("%-4s novelty-median=%2d coverage-median=%2d (budget %d, %d seeds) noWorse=%v",
			abbr, nm, cm, budget, seeds, ok)
	}
	if want := (len(variants) + 1) / 2; noWorse < want {
		t.Fatalf("coverage feedback was no-worse on only %d/%d variants, want >= %d",
			noWorse, len(variants), want)
	}
}
