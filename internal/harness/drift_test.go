package harness

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"nodefz/internal/bugs"
	"nodefz/internal/campaign"
	"nodefz/internal/core"
	"nodefz/internal/jsonl"
	"nodefz/internal/oracle"
	"nodefz/internal/sched"
	"nodefz/internal/vclock"
)

var update = flag.Bool("update", false, "regenerate testdata/drift.txt from the current code")

// driftTable is the checked-in schedule-drift table. Each line is one
// record: "trial" (one virtual trial's fingerprint), "campaign" (one short
// arena campaign's fingerprint), "witness" (the first manifesting seed of a
// Figure 6 app under nodeFZ) or "reports" (the first seed of an app whose
// nodeFZ trial draws an oracle report). The oracle gates replay the
// witnesses.
const driftTable = "testdata/drift.txt"

// driftSeeds is how many seeds each (app, mode) cell of the trial sweep runs.
const driftSeeds = 12

// driftCampaignApps get one short arena campaign each: single-loop network,
// filesystem and promise apps plus a cluster app.
var driftCampaignApps = []string{"SIO", "MKD", "KUE", "RST-prom", "REP-elect"}

// witnessSeed is the seed sequence the oracle gates search for witnesses.
func witnessSeed(s int) int64 { return int64(101*s + 5) }

// maxWitnessIndex bounds the witness search; an app with no manifesting
// seed below it gets no witness, which fails TestOracleAgreesWithDetectors.
const maxWitnessIndex = 400

func digest(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// driftTrial runs one trial on a fresh virtual clock and renders its
// fingerprint: the outcome, then digests of the decision trace, the type
// schedule with labels and virtual timestamps, the oracle report JSONL and
// the coverage digest.
func driftTrial(app *bugs.App, mode Mode, seed int64) string {
	recording := core.NewRecording(SchedulerFor(mode, seed))
	rec := sched.NewRecorder()
	tr := oracle.New()
	out := app.Run(bugs.RunConfig{
		Seed:      seed,
		Scheduler: recording,
		Recorder:  rec,
		Clock:     vclock.NewVirtual(),
		Oracle:    tr,
	})
	var types strings.Builder
	entries := rec.Entries()
	for _, e := range entries {
		fmt.Fprintf(&types, "%s\t%s\t%d\n", e.Kind, e.Label, e.At.UnixNano())
	}
	var reports strings.Builder
	if err := jsonl.New[oracle.Report](&reports).Append(tr.Reports()...); err != nil {
		panic(err)
	}
	return fmt.Sprintf("manifested=%t note=%s callbacks=%d trace=%s types=%s reports=%s coverage=%s",
		out.Manifested, digest([]byte(out.Note)), len(entries),
		digest(mustJSON(recording.Trace())), digest([]byte(types.String())),
		digest([]byte(reports.String())), digest(mustJSON(tr.Coverage())))
}

// driftCampaign runs one 60-trial coverage campaign on a single executor
// worker, so every trial runs in the same reused arena world, and renders
// its result plus a digest of every journaled trial entry (wall-clock
// elapsed time zeroed).
func driftCampaign(app *bugs.App) string {
	var mu sync.Mutex
	var entries []campaign.TrialEntry
	res, err := campaign.Run(campaign.Config{
		App:      app,
		Trials:   60,
		Workers:  1,
		BaseSeed: 7,
		Coverage: true,
		Progress: func(e campaign.TrialEntry) {
			e.ElapsedMS = 0
			mu.Lock()
			entries = append(entries, e)
			mu.Unlock()
		},
	})
	if err != nil {
		panic(err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Trial < entries[j].Trial })
	return fmt.Sprintf("manifested=%d violating=%d corpus=%d coverage=%d/%d/%d arms=%s minimized=%s entries=%s",
		res.Manifested, res.Violating, res.CorpusLen,
		res.CoveragePairs, res.CoverageDigests, res.CoverageTuples,
		digest(mustJSON(res.Arms)), digest(mustJSON(res.Minimized)), digest(mustJSON(entries)))
}

// findWitness returns the first index s whose nodeFZ trial with seed
// witnessSeed(s) satisfies found, rendered as a witness record; ok is false
// when none does below maxWitnessIndex.
func findWitness(app *bugs.App, found func(bugs.Outcome, []oracle.Report) bool) (record string, ok bool) {
	for s := 0; s < maxWitnessIndex; s++ {
		tr, out := oracleTrial(app.Run, ModeFZ, witnessSeed(s))
		if reps := tr.Reports(); found(out, reps) {
			return fmt.Sprintf("s=%d seed=%d reports=%d", s, witnessSeed(s), len(reps)), true
		}
	}
	return "", false
}

// loadDriftTable reads the table into key → fingerprint, keyed by the
// record type and its identifying fields.
func loadDriftTable(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(driftTable)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/harness -run TestScheduleDrift -update)", err)
	}
	defer f.Close()
	table := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, fp, ok := strings.Cut(sc.Text(), " | ")
		if !ok {
			t.Fatalf("%s: malformed line %q", driftTable, sc.Text())
		}
		table[key] = fp
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return table
}

// pinnedWitness returns the seed and oracle report count of the witness
// record key ("witness SIO", "reports SIO") in the drift table.
func pinnedWitness(t *testing.T, table map[string]string, key string) (seed int64, reports int) {
	t.Helper()
	fp, ok := table[key]
	if !ok {
		t.Fatalf("%s: not pinned in %s", key, driftTable)
	}
	var s int
	if _, err := fmt.Sscanf(fp, "s=%d seed=%d reports=%d", &s, &seed, &reports); err != nil {
		t.Fatalf("%s: bad witness record %q: %v", key, fp, err)
	}
	return seed, reports
}

// TestScheduleDrift is the cross-commit determinism gate. The other
// determinism gates compare two runs of one build, so a change that moves
// every schedule the same way passes them; this one compares each virtual
// trial — every registry app under nodeV, nodeNFZ and nodeFZ, driftSeeds
// seeds each — and a few short arena campaigns against fingerprints
// checked in under testdata. A refactor that claims to leave schedules
// untouched must pass it unchanged; a change that moves schedules on
// purpose regenerates the table with -update and says why.
func TestScheduleDrift(t *testing.T) {
	var mu sync.Mutex
	got := make(map[string]string)
	put := func(key, fp string) {
		mu.Lock()
		got[key] = fp
		mu.Unlock()
	}
	t.Run("group", func(t *testing.T) {
		for _, app := range bugs.All() {
			app := app
			t.Run("trials/"+app.Abbr, func(t *testing.T) {
				t.Parallel()
				for _, mode := range Fig6Modes() {
					for s := 0; s < driftSeeds; s++ {
						seed := int64(1009*s + 42)
						put(fmt.Sprintf("trial %s %s %d", app.Abbr, mode, seed), driftTrial(app, mode, seed))
					}
				}
			})
		}
		for _, abbr := range driftCampaignApps {
			app := bugs.ByAbbr(abbr)
			t.Run("campaign/"+abbr, func(t *testing.T) {
				t.Parallel()
				put("campaign "+app.Abbr, driftCampaign(app))
			})
		}
		if !*update {
			return
		}
		// Witness searches: the first manifesting seed of every Figure 6
		// app, and the first seed drawing an oracle report.
		manifests := func(out bugs.Outcome, _ []oracle.Report) bool { return out.Manifested }
		reports := func(_ bugs.Outcome, reps []oracle.Report) bool { return len(reps) > 0 }
		search := func(key string, app *bugs.App, found func(bugs.Outcome, []oracle.Report) bool) {
			t.Run(strings.ReplaceAll(key, " ", "/"), func(t *testing.T) {
				t.Parallel()
				rec, ok := findWitness(app, found)
				if !ok {
					t.Errorf("%s: no nodeFZ seed below index %d", key, maxWitnessIndex)
					return
				}
				put(key, rec)
			})
		}
		for _, app := range bugs.Fig6Set() {
			search("witness "+app.Abbr, app, manifests)
		}
		search("reports SIO", bugs.ByAbbr("SIO"), reports) // for TestOracleReportShape
	})
	if t.Failed() {
		return
	}

	if *update {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s | %s\n", k, got[k])
		}
		if err := os.WriteFile(driftTable, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d records to %s", len(keys), driftTable)
		return
	}

	want := loadDriftTable(t)
	drifted := 0
	for key, fp := range got {
		w, ok := want[key]
		switch {
		case !ok:
			t.Errorf("%s: not in %s", key, driftTable)
		case w != fp:
			drifted++
			if drifted <= 10 {
				t.Errorf("%s drifted:\n  want %s\n  got  %s", key, w, fp)
			}
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok && !strings.HasPrefix(key, "witness ") && !strings.HasPrefix(key, "reports ") {
			t.Errorf("%s: in %s but no longer produced", key, driftTable)
		}
	}
	if drifted > 0 {
		t.Errorf("%d of %d records drifted from %s", drifted, len(got), driftTable)
	}
}
