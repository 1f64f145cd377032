// Command fzcampaign runs a parallel, adaptive fuzzing campaign against one
// bug application from the corpus: trials fan out across a worker pool, a
// UCB1 bandit steers the Table-3 parameterization of each trial by
// schedule-novelty reward, manifesting trials are delta-debugged down to a
// minimal perturbation set, and the whole campaign checkpoints to a JSONL
// journal it can resume from after a kill. Every trial runs in virtual
// time on its worker's reusable trial world, so a trial is a pure function
// of its seed and finishes at CPU speed.
//
// Usage:
//
//	fzcampaign -list                                  # show the corpus
//	fzcampaign -app SIO -trials 100 -workers 4
//	fzcampaign -app KUE -trials 500 -budget 30s       # stop early, resumable
//	fzcampaign -app SIO -trials 200 -checkpoint c.jsonl
//	fzcampaign -app SIO -trials 200 -checkpoint c.jsonl -resume
//	fzcampaign -app MGS -trials 50 -metrics m.jsonl   # per-trial metrics stream
//	fzcampaign -app MGS -trials 200 -oracle -oracle-out viol.jsonl
//	fzcampaign -app SIO -trials 500 -coverage         # greybox: interleaving-coverage feedback
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nodefz/internal/bugs"
	"nodefz/internal/campaign"
	"nodefz/internal/jsonl"
	"nodefz/internal/metrics"
	"nodefz/internal/oracle"
	"nodefz/internal/profiling"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list the bug corpus and exit")
		abbr       = flag.String("app", "", "bug application abbreviation (see -list)")
		trials     = flag.Int("trials", 100, "total campaign size, including resumed trials")
		workers    = flag.Int("workers", 0, "trial executor pool size (0 = GOMAXPROCS)")
		seed       = flag.Int64("seed", 1, "campaign base seed (trial i runs TrialSeed(seed, i))")
		budget     = flag.Duration("budget", 0, "wall-clock budget; 0 = unlimited (a budget stop is resumable)")
		fixed      = flag.Bool("fixed", false, "run the patched variant")
		novelty    = flag.Float64("novelty", campaign.DefaultNoveltyThreshold, "corpus admission threshold (nearest-neighbour NLD must exceed it)")
		corpusCap  = flag.Int("corpus", campaign.DefaultCorpusCapacity, "corpus capacity")
		truncate   = flag.Int("truncate", campaign.DefaultScheduleTruncate, "schedule prefix length for novelty comparison")
		minimize   = flag.Int("minimize", campaign.DefaultMinimizeTrials, "manifesting trials to delta-debug (-1 disables)")
		minBudget  = flag.Int("minimize-budget", campaign.DefaultMinimizeBudget, "max replays per minimization")
		checkpoint = flag.String("checkpoint", "", "JSONL checkpoint journal path")
		resume     = flag.Bool("resume", false, "resume from -checkpoint instead of starting fresh")
		metOut     = flag.String("metrics", "", "append one JSONL metrics snapshot per trial to FILE")
		quiet      = flag.Bool("q", false, "suppress per-trial progress lines")
		orc        = flag.Bool("oracle", false, "attach the happens-before oracle to each trial (violation counts journaled, reward signal)")
		orcOut     = flag.String("oracle-out", "", "write oracle violation JSONL to FILE (implies -oracle)")
		coverage   = flag.Bool("coverage", false, "interleaving-coverage feedback: coverage-based corpus admission and bandit reward (implies -oracle)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the campaign to FILE")
		memProf    = flag.String("memprofile", "", "write a heap profile at campaign end to FILE")
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
	app := bugs.ByAbbr(*abbr)
	if app == nil {
		fmt.Fprintf(os.Stderr, "unknown bug %q (try -list)\n", *abbr)
		os.Exit(2)
	}
	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -checkpoint")
		os.Exit(2)
	}

	var metW *jsonl.Writer[metrics.TrialRecord]
	if *metOut != "" {
		// Buffered: at arena trial rates one syscall per record is real
		// cost. The campaign flushes at every checkpoint and at Finish.
		if metW, err = jsonl.Create[metrics.TrialRecord](*metOut, true); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	var repW *jsonl.Writer[oracle.TrialViolation]
	if *orcOut != "" {
		*orc = true
		if repW, err = jsonl.Create[oracle.TrialViolation](*orcOut, false); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	cfg := campaign.Config{
		App:              app,
		Fixed:            *fixed,
		Trials:           *trials,
		Workers:          *workers,
		BaseSeed:         *seed,
		Budget:           *budget,
		NoveltyThreshold: *novelty,
		CorpusCapacity:   *corpusCap,
		ScheduleTruncate: *truncate,
		MinimizeTrials:   *minimize,
		MinimizeBudget:   *minBudget,
		CheckpointPath:   *checkpoint,
		Resume:           *resume,
		Metrics:          metW,
		Oracle:           *orc,
		OracleOut:        repW,
		Coverage:         *coverage,
	}
	if !*quiet {
		cfg.Progress = func(e campaign.TrialEntry) {
			status := "ok"
			if e.Manifested {
				status = "MANIFESTED"
			}
			mark := ""
			if e.Admitted {
				mark = " +corpus"
			}
			if e.Violations > 0 {
				mark += fmt.Sprintf(" oracle=%d", e.Violations)
			}
			if e.NewCoverage > 0 {
				mark += fmt.Sprintf(" cov=+%.2f", e.NewCoverage)
			}
			fmt.Printf("trial %4d seed %-20d arm=%-12s novelty=%.3f %s%s\n",
				e.Trial, e.Seed, e.ArmName, e.Novelty, status, mark)
		}
	}

	start := time.Now()
	res, err := campaign.Run(cfg)
	stopProf() // flush profiles before any of the explicit exit paths below
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	fmt.Printf("\ncampaign %s%s: %d/%d trials done in %v (%d resumed, %d stopped by budget)\n",
		app.Abbr, variant(*fixed), res.Done, res.Trials, elapsed.Round(time.Millisecond),
		res.Resumed, res.Stopped)
	fmt.Printf("manifested %d/%d", res.Manifested, res.Done)
	if res.FirstNote != "" {
		fmt.Printf(" — %s", res.FirstNote)
	}
	fmt.Println()

	fmt.Printf("\n%-14s %6s %12s %11s\n", "arm", "pulls", "mean-reward", "manifested")
	for _, a := range res.Arms {
		fmt.Printf("%-14s %6d %12.3f %11d\n", a.Name, a.Pulls, a.Mean(), a.Manifested)
	}
	fmt.Printf("\ncorpus: %d schedules (novelty threshold %.2f, capacity %d)\n",
		res.CorpusLen, *novelty, *corpusCap)
	if *coverage {
		fmt.Printf("coverage: %d racing pairs, %d hb-edge digests, %d adjacency tuples\n",
			res.CoveragePairs, res.CoverageDigests, res.CoverageTuples)
	}

	for _, m := range res.Minimized {
		pts := make([]string, len(m.Points))
		for i, p := range m.Points {
			pts[i] = p.String()
		}
		status := "reproduced"
		if !m.Reproduced {
			status = "NOT reproduced (replay infidelity)"
		}
		fmt.Printf("minimized trial %d: %d -> %d perturbations [%s] in %d replays, %s\n",
			m.Trial, m.Original, m.Minimal, strings.Join(pts, " "), m.Replays, status)
	}

	fmt.Printf("watermark %d/%d\n", res.Watermark, res.Trials)
	if err := errors.Join(repW.Close(), metW.Close()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if repW != nil {
		fmt.Printf("%d oracle violation line(s) written to %s\n", repW.Count(), *orcOut)
	}
	if metW != nil {
		fmt.Printf("%d metrics snapshot(s) written to %s\n", metW.Count(), *metOut)
	}
	if res.Done < res.Trials {
		// Signal the incomplete (budget-stopped) campaign to scripts; the
		// journal makes it resumable.
		os.Exit(3)
	}
}

func variant(fixed bool) string {
	if fixed {
		return " (fixed)"
	}
	return " (buggy)"
}
