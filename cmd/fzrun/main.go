// Command fzrun executes one bug application from the corpus under a chosen
// runtime configuration — the drop-in "node vs node.fz" experience of §4.3.
//
// Usage:
//
//	fzrun -list                          # show the corpus
//	fzrun -bug SIO                       # one trial, vanilla
//	fzrun -bug SIO -mode nodeFZ -trials 20
//	fzrun -bug KUE -mode nodeFZ -seed 7 -trace       # dump the type schedule
//	fzrun -bug KUE -mode nodeFZ -trials 2 -diff      # schedule diff between trials
//	fzrun -bug MGS -fixed -mode nodeFZ -trials 20
//	fzrun -bug NES -mode nodeFZ -record nes.trace    # save scheduler decisions
//	fzrun -bug NES -mode nodeFZ -replay nes.trace    # bias a run toward them
//	fzrun -bug SIO -mode nodeFZ -trials 5 -metrics out.jsonl   # per-trial metrics
//	fzrun -bug SIO -mode nodeFZ -trials 20 -oracle             # HB violation reports
//	fzrun -bug KUE -mode nodeFZ -trials 50 -oracle-out viol.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"nodefz/internal/bugs"
	"nodefz/internal/core"
	"nodefz/internal/harness"
	"nodefz/internal/jsonl"
	"nodefz/internal/metrics"
	"nodefz/internal/oracle"
	"nodefz/internal/sched"
)

func main() {
	var (
		list   = flag.Bool("list", false, "list the bug corpus and exit")
		abbr   = flag.String("bug", "", "bug abbreviation (see -list)")
		mode   = flag.String("mode", "nodeV", "nodeV | nodeNFZ | nodeFZ | nodeFZ(guided)")
		seed   = flag.Int64("seed", 1, "base seed")
		trials = flag.Int("trials", 1, "number of trials")
		fixed  = flag.Bool("fixed", false, "run the patched variant")
		trace  = flag.Bool("trace", false, "dump the type schedule of each trial")
		record = flag.String("record", "", "write the scheduler decision trace of the last trial to FILE")
		replay = flag.String("replay", "", "replay a decision trace from FILE (bias the run toward a recorded schedule)")
		diff   = flag.Bool("diff", false, "print the type-schedule diff between consecutive trials")
		metOut = flag.String("metrics", "", "append one JSONL metrics snapshot per trial to FILE")
		vtime  = flag.Bool("virtual-time", false, "run each trial on a virtual clock (simulated time, CPU-bound)")
		orc    = flag.Bool("oracle", false, "attach the happens-before oracle to each trial and report violations")
		orcOut = flag.String("oracle-out", "", "write oracle violation JSONL to FILE (default stdout; implies -oracle)")
	)
	flag.Parse()
	bugs.SetVirtualTime(*vtime)

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
	m, err := harness.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	run := app.Run
	if *fixed {
		if app.RunFixed == nil {
			fmt.Fprintf(os.Stderr, "%s has no modelled fix\n", app.Abbr)
			os.Exit(2)
		}
		run = app.RunFixed
	}

	var replayTrace *core.Trace
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		replayTrace, err = core.DecodeTrace(f)
		f.Close()
		if err != nil {
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
	} else if *orc {
		repW = jsonl.New[oracle.TrialViolation](os.Stdout)
	}
	var metW *jsonl.Writer[metrics.TrialRecord]
	if *metOut != "" {
		if metW, err = jsonl.Create[metrics.TrialRecord](*metOut, false); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	manifested := 0
	totalViolations := 0
	var prevSchedule []string
	for i := 0; i < *trials; i++ {
		s := *seed + int64(i)
		scheduler := harness.SchedulerFor(m, s)
		var recording *core.RecordingScheduler
		switch {
		case replayTrace != nil:
			scheduler = core.NewReplay(replayTrace, scheduler)
		case *record != "":
			recording = core.NewRecording(scheduler)
			scheduler = recording
		}
		cfg := bugs.RunConfig{Seed: s, Scheduler: scheduler, Clock: bugs.TrialClock()}
		var tracker *oracle.Tracker
		if *orc {
			tracker = oracle.New()
			cfg.Oracle = tracker
		}
		var rec *sched.Recorder
		if *trace || *diff || metW != nil {
			rec = sched.NewRecorder()
			cfg.Recorder = rec
		}
		var reg *metrics.Registry
		if metW != nil {
			reg = metrics.NewRegistry()
			cfg.Metrics = reg
		}
		out := run(cfg)
		if metW != nil {
			_ = metW.Append(harness.CollectTrial(app.Abbr, m, s, i, out, reg, scheduler, rec.Types()))
		}
		status := "ok"
		if out.Manifested {
			manifested++
			status = "MANIFESTED"
		}
		fmt.Printf("trial %d (seed %d): %s", i+1, s, status)
		if out.Note != "" {
			fmt.Printf(" — %s", out.Note)
		}
		var reps []oracle.Report
		if *orc {
			reps = tracker.Reports()
			totalViolations += len(reps)
			fmt.Printf(" [oracle: %d violation(s)]", len(reps))
		}
		fmt.Println()
		_ = repW.Append(oracle.Violations(app.Abbr, m.String(), i, s, reps)...)
		if rec != nil && *trace {
			entries := rec.Entries()
			if len(entries) > 0 {
				start := entries[0].At
				for _, e := range entries {
					fmt.Printf("  [%8.2fms] %-10s %s\n",
						float64(e.At.Sub(start).Microseconds())/1000, e.Kind, e.Label)
				}
			}
		}
		if rec != nil && *diff {
			types := rec.Types()
			if prevSchedule != nil {
				ops := sched.Diff(prevSchedule, types)
				fmt.Printf("  schedule diff vs previous trial (distance %d, NLD %.3f):\n%s",
					sched.DiffDistance(ops),
					sched.NormalizedLevenshtein(prevSchedule, types),
					sched.FormatDiff(ops, 1))
			}
			prevSchedule = types
		}
		if recording != nil && i == *trials-1 {
			f, err := os.Create(*record)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := recording.Trace().Encode(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f.Close()
			fmt.Printf("decision trace written to %s\n", *record)
		}
	}
	if err := errors.Join(metW.Close(), repW.Close()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if metW != nil {
		fmt.Printf("%d metrics snapshot(s) written to %s\n", metW.Count(), *metOut)
	}
	if *orcOut != "" {
		fmt.Printf("%d oracle violation line(s) written to %s\n", repW.Count(), *orcOut)
	}
	fmt.Printf("\n%s %s under %s: manifested %d/%d", app.Abbr, variant(*fixed), m, manifested, *trials)
	if *orc {
		fmt.Printf(", oracle violations %d", totalViolations)
	}
	fmt.Println()
}

func variant(fixed bool) string {
	if fixed {
		return "(fixed)"
	}
	return "(buggy)"
}
