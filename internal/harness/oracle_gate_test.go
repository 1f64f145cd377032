package harness

import (
	"strings"
	"testing"

	"nodefz/internal/bugs"
	"nodefz/internal/conformance"
	"nodefz/internal/eventloop"
	"nodefz/internal/jsonl"
	"nodefz/internal/oracle"
	"nodefz/internal/vclock"
)

// oracleTrial runs one corpus variant with a fresh tracker under virtual
// time and returns the tracker.
func oracleTrial(run func(bugs.RunConfig) bugs.Outcome, mode Mode, seed int64) (*oracle.Tracker, bugs.Outcome) {
	tr := oracle.New()
	out := run(bugs.RunConfig{
		Seed:      seed,
		Scheduler: SchedulerFor(mode, seed),
		Clock:     vclock.NewVirtual(),
		Oracle:    tr,
	})
	return tr, out
}

func dumpReports(tr *oracle.Tracker) string {
	var b strings.Builder
	if err := jsonl.New[oracle.Report](&b).Append(tr.Reports()...); err != nil {
		return err.Error()
	}
	return b.String()
}

// TestOracleFixedVariantsSilent is the false-positive regression gate: the
// patched variant of every corpus app must produce zero oracle reports
// under all three Figure 6 configurations, across a spread of seeds. A
// report here means either the instrumentation tags state the patch no
// longer relies on, or the happens-before model is missing an edge the
// substrate really provides.
func TestOracleFixedVariantsSilent(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 5
	}
	for _, app := range bugs.All() {
		if app.RunFixed == nil {
			continue
		}
		app := app
		t.Run(app.Abbr, func(t *testing.T) {
			for _, mode := range Fig6Modes() {
				for s := 0; s < seeds; s++ {
					seed := int64(1000*s + 17)
					tr, out := oracleTrial(app.RunFixed, mode, seed)
					if out.Manifested {
						t.Fatalf("%s fixed manifested under %s seed %d: %s",
							app.Abbr, mode, seed, out.Note)
					}
					if reps := tr.Reports(); len(reps) != 0 {
						t.Fatalf("%s fixed: %d oracle report(s) under %s seed %d:\n%s",
							app.Abbr, len(reps), mode, seed, dumpReports(tr))
					}
				}
			}
		})
	}
}

// TestOracleConformanceSilent runs the documented-semantics suite with the
// tracker attached to every loop, each on its own virtual clock.
// Conformance workloads tag no cells, so any report is a tracker false
// positive, and any scenario failure or panic means the probe hooks
// perturbed substrate behavior.
func TestOracleConformanceSilent(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 5
	}
	for _, mode := range Fig6Modes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			for s := 0; s < seeds; s++ {
				seed := int64(500*s + 11)
				for _, sc := range conformance.Suite() {
					tr := oracle.New()
					newLoop := func() *eventloop.Loop {
						return eventloop.New(eventloop.Options{
							Scheduler: SchedulerFor(mode, seed),
							Clock:     vclock.NewVirtual(),
							Probe:     tr,
						})
					}
					if err := sc.Run(newLoop, seed); err != nil {
						t.Fatalf("%s under %s seed %d with oracle attached: %v",
							sc.Name, mode, seed, err)
					}
					if reps := tr.Reports(); len(reps) != 0 {
						t.Fatalf("%s under %s seed %d: %d spurious report(s):\n%s",
							sc.Name, mode, seed, len(reps), dumpReports(tr))
					}
				}
			}
		})
	}
}

// TestOracleAgreesWithDetectors cross-validates the oracle against the
// corpus's hand-written detectors: for every instrumented Figure 6 app, the
// pinned witness — the first seed of the witnessSeed sequence whose buggy
// trial manifests under nodeFZ, recorded in the drift table — must still
// manifest, and the oracle must report at least one violation on that same
// trial. Under virtual time both are pure functions of the seed, so a
// witness that stops manifesting is schedule drift, not bad luck.
func TestOracleAgreesWithDetectors(t *testing.T) {
	table := loadDriftTable(t)
	for _, app := range bugs.Fig6Set() {
		app := app
		t.Run(app.Abbr, func(t *testing.T) {
			seed, _ := pinnedWitness(t, table, "witness "+app.Abbr)
			tr, out := oracleTrial(app.Run, ModeFZ, seed)
			if !out.Manifested {
				t.Fatalf("%s: pinned witness seed %d no longer manifests under nodeFZ", app.Abbr, seed)
			}
			if len(tr.Reports()) == 0 {
				t.Fatalf("%s buggy manifested under nodeFZ seed %d (%s) but the oracle is silent",
					app.Abbr, seed, out.Note)
			}
		})
	}
}

// TestOracleDeterministicReports: under a virtual clock the report stream
// is a pure function of the seed — two runs of the same trial must emit
// byte-identical JSONL.
func TestOracleDeterministicReports(t *testing.T) {
	app := bugs.ByAbbr("SIO")
	if app == nil {
		t.Fatal("SIO missing from registry")
	}
	for s := 0; s < 3; s++ {
		seed := int64(31*s + 7)
		tr1, _ := oracleTrial(app.Run, ModeFZ, seed)
		tr2, _ := oracleTrial(app.Run, ModeFZ, seed)
		if a, b := dumpReports(tr1), dumpReports(tr2); a != b {
			t.Fatalf("seed %d: report stream differs between identical runs:\n--- run 1\n%s--- run 2\n%s", seed, a, b)
		}
	}
}

// TestOracleReportShape sanity-checks the JSONL fields on a real report:
// the pinned SIO witness — the first seed of the witnessSeed sequence whose
// nodeFZ trial draws a report — must still draw one.
func TestOracleReportShape(t *testing.T) {
	app := bugs.ByAbbr("SIO")
	if app == nil {
		t.Fatal("SIO missing from registry")
	}
	seed, _ := pinnedWitness(t, loadDriftTable(t), "reports SIO")
	tr, _ := oracleTrial(app.Run, ModeFZ, seed)
	reps := tr.Reports()
	if len(reps) == 0 {
		t.Fatalf("pinned witness seed %d drew no SIO report", seed)
	}
	for _, r := range reps {
		if r.Kind != "ordering" && r.Kind != "atomicity" {
			t.Fatalf("bad kind %q", r.Kind)
		}
		if r.Cell == "" {
			t.Fatalf("empty cell: %+v", r)
		}
		if r.First.Kind == "" || r.Second.Kind == "" {
			t.Fatalf("missing unit kinds: %+v", r)
		}
	}
	line := dumpReports(tr)
	if !strings.Contains(line, "\"cell\"") || !strings.Contains(line, "\"trace\"") {
		t.Fatalf("JSONL missing fields: %s", line)
	}
}
