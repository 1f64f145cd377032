// Command fzbench regenerates the paper's tables and figures against this
// repository's reproduction (see DESIGN.md §6 for the experiment index).
//
// Usage:
//
//	fzbench -exp all                       # everything, default budgets
//	fzbench -exp fig6 -trials 100          # the paper's trial count
//	fzbench -exp fig7 -runs 10 -truncate 20000
//	fzbench -exp fig8 -runs 50
//	fzbench -exp fidelity -seeds 20
//	fzbench -exp guided -trials 50
//	fzbench -exp sweep -trials 50          # Table 3 parameter ablation
//	fzbench -exp table1|table2|table3
//
// Absolute numbers depend on the host; the shapes — who wins, by roughly
// what factor — are the reproduction target.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nodefz/internal/bugs"
	"nodefz/internal/harness"
	"nodefz/internal/jsonl"
	"nodefz/internal/metrics"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1|table2|table3|fig6|fig7|fig8|fidelity|guided|sweep|explore|all")
		trials   = flag.Int("trials", 100, "trials per bug per mode (fig6, guided uses half)")
		runs     = flag.Int("runs", 10, "suite runs per mode (fig7; fig8 uses 5x)")
		truncate = flag.Int("truncate", 20000, "type-schedule truncation for fig7 (<0: none)")
		seeds    = flag.Int("seeds", 10, "seeds for the fidelity experiment")
		seed     = flag.Int64("seed", 1000, "base seed")
		metOut   = flag.String("metrics", "", "append per-trial JSONL metrics snapshots to FILE (fig6 only)")
		vtime    = flag.Bool("virtual-time", false, "run each trial on a virtual clock (simulated time, CPU-bound)")
	)
	flag.Parse()
	bugs.SetVirtualTime(*vtime)

	w := os.Stdout
	run := func(name string, fn func()) {
		if *exp != "all" && *exp != name {
			return
		}
		start := time.Now()
		fn()
		fmt.Fprintf(w, "\n[%s took %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	ok := map[string]bool{"all": true, "table1": true, "table2": true, "table3": true,
		"fig6": true, "fig7": true, "fig8": true, "fidelity": true, "guided": true,
		"sweep": true, "explore": true}
	if !ok[*exp] {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	run("table1", func() { harness.WriteTable1(w) })
	run("table2", func() { harness.WriteTable2(w) })
	run("table3", func() { harness.WriteTable3(w) })
	run("fig6", func() {
		var obs harness.TrialObserver
		var metW *jsonl.Writer[metrics.TrialRecord]
		if *metOut != "" {
			var err error
			if metW, err = jsonl.Create[metrics.TrialRecord](*metOut, false); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			obs = harness.JSONLObserver(metW)
		}
		harness.WriteFig6(w, harness.Fig6Observed(*trials, *seed, obs))
		if err := metW.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if metW != nil {
			fmt.Fprintf(w, "[%d metrics snapshots written to %s]\n", metW.Count(), *metOut)
		}
	})
	run("fig7", func() { harness.WriteFig7(w, harness.Fig7(*runs, *truncate, *seed)) })
	run("fig8", func() { harness.WriteFig8(w, harness.Fig8(*runs*5, *seed)) })
	run("fidelity", func() { harness.WriteFidelity(w, harness.Fidelity(harness.ModeFZ, *seeds)) })
	run("guided", func() { harness.WriteGuided(w, harness.Guided(*trials/2, *seed)) })
	run("explore", func() {
		for _, abbr := range []string{"NES", "GHO", "AKA"} {
			app := bugs.ByAbbr(abbr)
			harness.WriteExplore(w, harness.Explore(app, *seed, 25, 80))
			fmt.Fprintln(w)
		}
	})
	run("sweep", func() {
		values := []int{0, 10, 20, 40, 80}
		harness.WriteSweep(w, []harness.SweepResult{
			harness.Sweep("timer-deferral", "NES", values, *trials/2, *seed),
			harness.Sweep("epoll-deferral", "GHO", values, *trials/2, *seed),
			harness.Sweep("close-deferral", "AKA", values, *trials/2, *seed),
		})
	})
}
