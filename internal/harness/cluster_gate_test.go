package harness

import (
	"testing"

	"nodefz/internal/bugs"
)

// repApps returns the cluster-tier corpus entries (the REP variants).
func repApps(t *testing.T) []*bugs.App {
	t.Helper()
	var apps []*bugs.App
	for _, abbr := range []string{"REP-elect", "REP-replay"} {
		app := bugs.ByAbbr(abbr)
		if app == nil {
			t.Fatalf("%s missing from registry", abbr)
		}
		apps = append(apps, app)
	}
	return apps
}

// TestClusterOracleGate is the oracle acceptance gate for the cluster tier:
// on every manifesting buggy trial — across all three Figure 6 modes and a
// spread of seeds — the tracker must report a violation, with no hand-written
// detector needed. It is the multi-node mirror of
// TestOracleAgreesWithDetectors, demanding agreement on *every* manifesting
// trial in the budget rather than the first: cross-node happens-before
// edges (send→deliver between loops) flow through the same hooks as
// single-node ones, so a silent manifestation means an HB edge is being
// invented somewhere across the cluster. The patched-variant half of the
// gate — REP silent across the same spread — runs in
// TestOracleFixedVariantsSilent, which covers the REP entries via
// bugs.All().
func TestClusterOracleGate(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 8
	}
	for _, app := range repApps(t) {
		app := app
		t.Run(app.Abbr, func(t *testing.T) {
			manifested := 0
			for _, mode := range Fig6Modes() {
				for s := 0; s < seeds; s++ {
					seed := int64(s + 1)
					tr, out := oracleTrial(app.Run, mode, seed)
					if !out.Manifested {
						continue
					}
					manifested++
					if len(tr.Reports()) == 0 {
						t.Fatalf("%s buggy manifested under %s seed %d (%s) but the oracle is silent",
							app.Abbr, mode, seed, out.Note)
					}
				}
			}
			// The fault scripts are tuned so the fuzzing mode manifests on a
			// known fraction of these seeds; zero across the whole sweep
			// means the script regressed and the gate above checked nothing.
			if manifested == 0 {
				t.Fatalf("%s: no manifesting trial in %d seeds x 3 modes — gate is vacuous",
					app.Abbr, seeds)
			}
		})
	}
}

// TestArenaClusterEquivalence is the gate for cluster trials in an arena:
// each node loop, restarts included, takes one of the arena's loop slots
// after the control loop's slot 0, and every slot is reset in place at the
// next Begin. Correctness bar, same as TestArenaResetEquivalence, with
// metrics off and on: an arena-run cluster trial is bit-identical to the
// same trial in a freshly built world, and so is a single-loop trial run
// through the same arena afterwards.
func TestArenaClusterEquivalence(t *testing.T) {
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	single := bugs.ByAbbr("SIO")
	if single == nil {
		t.Fatal("SIO missing from registry")
	}
	for _, app := range repApps(t) {
		for _, mode := range []Mode{ModeNFZ, ModeFZ} {
			for _, mm := range metricsModes {
				t.Run(app.Abbr+"/"+mode.String()+mm.suffix, func(t *testing.T) {
					t.Parallel()
					w := newArenaWorld(mode, 1, mm.on)
					for s := 0; s < seeds; s++ {
						compareWorlds(t, w, app, mode, int64(s+1))
					}
					// A single-loop trial after cluster trials reuses slot 0
					// while the node slots sit reset and idle: it must match
					// a fresh world too, registry values included.
					compareWorlds(t, w, single, mode, 7)
				})
			}
		}
	}
}
