// Command fzfleet runs the whole bug corpus as one fleet: N concurrent
// campaigns — one per bug application — scheduled by a marginal-yield
// allocator under a single global trial budget. Each allocation decision
// grants one campaign a slice of K trials; an epsilon-greedy policy steers
// slices toward the campaigns whose recent slices yielded the most novel
// corpus admissions, oracle violations, and new interleaving coverage,
// with a decaying window so exhausted targets release their workers.
//
// The fleet checkpoints everything to a journal directory — its own
// allocator journal plus one campaign journal per app — and resumes from a
// kill -9 with bit-identical allocator watermarks. Every trial runs in
// virtual time, so a fleet is CPU-bound and deterministic per seed.
//
// Usage:
//
//	fzfleet -list                                      # show the corpus
//	fzfleet -trials 3600                               # whole corpus, one budget
//	fzfleet -apps SIO,KUE,MGS -trials 300 -slice 10
//	fzfleet -trials 3600 -dir fleet/ -oracle -coverage
//	fzfleet -trials 3600 -dir fleet/ -resume           # continue after a kill
//	fzfleet -trials 1000 -policy round-robin           # uniform baseline
//	fzfleet -trials 3600 -dashboard - -dashboard-every 16
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nodefz/internal/bugs"
	"nodefz/internal/fleet"
	"nodefz/internal/metrics"
	"nodefz/internal/oracle"
	"nodefz/internal/profiling"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list the bug corpus and exit")
		apps      = flag.String("apps", "", "comma-separated app abbreviations (empty = the whole corpus)")
		trials    = flag.Int("trials", 1000, "global fleet trial budget, including resumed trials")
		campTr    = flag.Int("campaign-trials", 0, "per-campaign trial cap (0 = the global budget)")
		slice     = flag.Int("slice", fleet.DefaultSliceTrials, "trials per allocation slice (K)")
		workers   = flag.Int("workers", 1, "executor width per slice (1 keeps the fleet bit-deterministic per seed)")
		seed      = flag.Int64("seed", 1, "fleet base seed (drives child campaigns and the allocator)")
		policy    = flag.String("policy", string(fleet.PolicyGreedy), "allocator policy: greedy | round-robin")
		epsilon   = flag.Float64("epsilon", fleet.DefaultEpsilon, "exploration rate of the greedy policy")
		decay     = flag.Float64("decay", fleet.DefaultDecay, "yield EMA keep-fraction (decaying window)")
		discount  = flag.Float64("manifest-discount", fleet.DefaultManifestDiscount, "yield factor for campaigns whose bug already manifested")
		fixed     = flag.Bool("fixed", false, "run the patched variants")
		orc       = flag.Bool("oracle", false, "attach the happens-before oracle to every trial")
		orcOut    = flag.String("oracle-out", "", "write oracle violation JSONL to FILE (implies -oracle)")
		coverage  = flag.Bool("coverage", false, "interleaving-coverage feedback in every campaign (implies -oracle)")
		dir       = flag.String("dir", "", "checkpoint directory (fleet journal + one campaign journal per app)")
		resume    = flag.Bool("resume", false, "resume the fleet from -dir instead of starting fresh")
		metOut    = flag.String("metrics", "", "append per-trial JSONL metrics for every campaign to FILE")
		dash      = flag.String("dashboard", "", "write the periodic text dashboard to FILE (\"-\" = stdout)")
		dashJSONL = flag.String("dashboard-jsonl", "", "append periodic machine-readable status records to FILE")
		dashEvery = flag.Int("dashboard-every", fleet.DefaultDashboardEvery, "slices between dashboard emissions")
		maxSlices = flag.Int("max-slices", 0, "pause (resumably) after N slices this run (0 = run to budget)")
		quiet     = flag.Bool("q", false, "suppress per-slice progress lines")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the fleet to FILE")
		memProf   = flag.String("memprofile", "", "write a heap profile at fleet end to FILE")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	if *list {
		fmt.Printf("%-11s %-6s %-9s %-10s %s\n", "abbr", "race", "events", "issue", "name")
		for _, a := range bugs.All() {
			fmt.Printf("%-11s %-6s %-9s %-10s %s\n", a.Abbr, a.RaceType, a.RacingEvents, a.Issue, a.Name)
		}
		return
	}
	if *resume && *dir == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -dir")
		os.Exit(2)
	}

	var specs []fleet.Spec
	if *apps == "" {
		for _, a := range bugs.All() {
			specs = append(specs, fleet.Spec{App: a, Fixed: *fixed})
		}
	} else {
		for _, abbr := range strings.Split(*apps, ",") {
			abbr = strings.TrimSpace(abbr)
			app := bugs.ByAbbr(abbr)
			if app == nil {
				fmt.Fprintf(os.Stderr, "unknown bug %q (try -list)\n", abbr)
				os.Exit(2)
			}
			specs = append(specs, fleet.Spec{App: app, Fixed: *fixed})
		}
	}

	var metW *metrics.JSONLWriter
	if *metOut != "" {
		f, err := os.Create(*metOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		// Buffered: every child campaign flushes at its checkpoints and
		// at Finish, so a kill loses at most what the journals also lost.
		metW = metrics.NewBufferedJSONLWriter(f)
	}
	var repW *oracle.ReportWriter
	if *orcOut != "" {
		*orc = true
		f, err := os.Create(*orcOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		repW = oracle.NewReportWriter(f)
	}
	var dashW *os.File
	if *dash == "-" {
		dashW = os.Stdout
	} else if *dash != "" {
		f, err := os.Create(*dash)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		dashW = f
	}
	var dashJW *metrics.FleetStatusWriter
	if *dashJSONL != "" {
		f, err := os.Create(*dashJSONL)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		dashJW = metrics.NewFleetStatusWriter(f)
	}

	cfg := fleet.Config{
		Specs:            specs,
		GlobalTrials:     *trials,
		CampaignTrials:   *campTr,
		SliceTrials:      *slice,
		Workers:          *workers,
		BaseSeed:         *seed,
		Policy:           fleet.Policy(*policy),
		Epsilon:          *epsilon,
		Decay:            *decay,
		ManifestDiscount: *discount,
		Oracle:           *orc,
		Coverage:         *coverage,
		Dir:              *dir,
		Resume:           *resume,
		Metrics:          metW,
		OracleOut:        repW,
		DashboardJSONL:   dashJW,
		DashboardEvery:   *dashEvery,
		MaxSlices:        *maxSlices,
	}
	if dashW != nil {
		cfg.Dashboard = dashW
	}
	if !*quiet {
		cfg.Progress = func(r fleet.SliceRecord) {
			mark := ""
			if r.Explore {
				mark = " explore"
			}
			if r.Skipped > 0 {
				mark += fmt.Sprintf(" skipped=%d", r.Skipped)
			}
			fmt.Printf("slice %4d %-11s trials [%d,%d) yield=%.3f adm=%d viol=%d cov=%d man=%d%s\n",
				r.Slice, r.App, r.From, r.To, r.Yield, r.Admitted, r.Violating, r.NewCov, r.Manifested, mark)
		}
	}

	start := time.Now()
	res, err := fleet.Run(cfg)
	stopProf() // flush profiles before any of the explicit exit paths below
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	fmt.Printf("\nfleet: %d slices, %d/%d trials assigned in %v (policy %s, slice %d, seed %d)\n",
		res.Slices, res.Assigned, res.Budget, elapsed.Round(time.Millisecond), cfg.Policy, cfg.SliceTrials, cfg.BaseSeed)
	fmt.Printf("manifested on %d/%d campaigns\n\n", res.Manifested(), len(res.Campaigns))
	fmt.Printf("%-11s %7s %6s %11s %10s %7s %7s %7s\n",
		"app", "trials", "done", "manifested", "violating", "corpus", "yield", "slices")
	for _, c := range res.Campaigns {
		fmt.Printf("%-11s %7d %6d %11d %10d %7d %7.3f %7d\n",
			c.App, c.Result.Trials, c.Result.Done, c.Result.Manifested, c.Result.Violating,
			c.Result.CorpusLen, c.Yield, c.Slices)
	}
	fmt.Printf("\nassigned %d/%d\n", res.Assigned, res.Budget)
	if repW != nil {
		fmt.Printf("%d oracle violation line(s) written to %s\n", repW.Count(), *orcOut)
	}
	if metW != nil {
		fmt.Printf("%d metrics snapshot(s) written to %s\n", metW.Count(), *metOut)
	}
	if res.Assigned < res.Budget {
		// The fleet paused (MaxSlices) or every campaign hit its cap before
		// the budget; the journal directory makes the run resumable.
		os.Exit(3)
	}
}
