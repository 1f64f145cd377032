package harness

import (
	"bytes"
	"strings"
	"testing"

	"nodefz/internal/bugs"
)

func TestExploreBaselineCountsPoints(t *testing.T) {
	// RST manifests often even without perturbation (vanilla-frequent), so
	// the search usually ends early; either way the bookkeeping must hold.
	res := Explore(bugs.ByAbbr("RST"), 5, 10, 15)
	if res.Points <= 0 {
		t.Fatalf("no decision points measured: %+v", res)
	}
	if res.Runs < 1 || res.Runs > 15 {
		t.Fatalf("runs = %d", res.Runs)
	}
	var buf bytes.Buffer
	WriteExplore(&buf, res)
	if !strings.Contains(buf.String(), "decision points") {
		t.Error("explore output malformed")
	}
}

// TestExploreFindsDelayVector runs the systematic search under virtual
// time, where it is a pure function of the seed, against a pinned witness:
// NES is timer-deferral sensitive, and the search from seed 0 finds a
// manifesting delay vector in 14 runs.
func TestExploreFindsDelayVector(t *testing.T) {
	// Explore draws each trial's clock from the process-wide default; a
	// top-level test runs alone, so switching it here is safe.
	wasVirtual := bugs.TrialClock() != nil
	bugs.SetVirtualTime(true)
	defer bugs.SetVirtualTime(wasVirtual)
	const seed, wantRuns = 0, 14
	res := Explore(bugs.ByAbbr("NES"), seed, 25, 60)
	if !res.Manifested {
		t.Fatalf("systematic search from pinned seed %d found nothing: %+v", seed, res)
	}
	if res.Runs != wantRuns {
		t.Errorf("systematic search from pinned seed %d took %d runs, want %d: %+v", seed, res.Runs, wantRuns, res)
	}
	var buf bytes.Buffer
	WriteExplore(&buf, res)
	if !strings.Contains(buf.String(), "manifested") {
		t.Error("explore output missing manifestation")
	}
}
