package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"time"

	"nodefz/internal/bugs"
)

// fig6QuotaBlocks is how many blocks the outcome counts cover: every run
// completes at least this many, so the counts are exact for a seed. A block
// is 51 trials: 13 apps, 4 trials each, less SIO-novel's patched variant.
const fig6QuotaBlocks = 200

// fig6Sweep is the fig6-sweep workload untraced: the Fig 6 experiment
// under virtual time, closed loop, one trial at a time, each in a fresh
// world. It measures for the run length and for at least the quota blocks.
func fig6Sweep(o options, r *report) error {
	apps := bugs.Fig6Set()
	var setups []span
	for i := 0; i < fig6ColdStarts; i++ {
		sp, err := coldStart(o.seed)
		if err != nil {
			return err
		}
		setups = append(setups, sp)
	}

	var all, t tally   // every trial; the quota blocks only
	var first []string // block 0's outcomes, for the determinism check
	tm := startTimings()
	tm.setups = setups
	deadline := tm.start.wall.Add(o.duration)
sweep:
	for b := 0; ; b++ {
		for _, tr := range block(apps, o.seed, b) {
			if b >= fig6QuotaBlocks && time.Now().After(deadline) {
				break sweep
			}
			s := now()
			out, err := tr.exec(tr.world())
			tm.trial(s)
			if b == 0 {
				first = append(first, outcomeKey(out, err))
			}
			all.add(tr, out, err)
			if b < fig6QuotaBlocks {
				t.add(tr, out, err)
			}
		}
	}
	tm.report(r)
	r.attempted = all.trials
	r.failed = all.failures()
	r.set("manifest_frac", "frac", float64(t.fuzzedManifest)/float64(t.fuzzed))
	r.na("first_manifest_trial", "trials")
	r.na("violating_frac", "frac")
	r.na("coverage_items", "count")
	r.set("failed_frac", "frac", float64(r.failed)/float64(r.attempted))
	r.linef("set-up: %d cold starts of block 0 in a child process", fig6ColdStarts)
	r.linef("%s", t.outcomeLine(apps))

	checkFig6(r, &all, &t)
	// Determinism: block 0 again gives the same outcomes.
	for i, tr := range block(apps, o.seed, 0) {
		out, err := tr.exec(tr.world())
		if got := outcomeKey(out, err); got != first[i] {
			r.check(false, "%v is not deterministic: %q then %q", tr, first[i], got)
			break
		}
	}
	return nil
}

// fig6ColdStarts is how many times a fig6-sweep run measures its set-up.
const fig6ColdStarts = 5

// coldStart runs this program again as a child that only runs block 0 of
// the sweep, and returns the child's lifetime and CPU time: process start,
// runtime and package initialisation, and the first trial of every app,
// mode and variant — the sweep's set-up, paid cold each time.
func coldStart(seed int64) (span, error) {
	exe, err := os.Executable()
	if err != nil {
		return span{}, err
	}
	cmd := exec.Command(exe, "-cold-start", "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return span{}, fmt.Errorf("cold start: %w", err)
	}
	ps := cmd.ProcessState
	return span{wall: time.Since(start), cpu: ps.UserTime() + ps.SystemTime()}, nil
}

// runColdStart is the child side of coldStart.
func runColdStart(seed int64) {
	for _, tr := range block(bugs.Fig6Set(), seed, 0) {
		tr.exec(tr.world())
	}
}

// checkFig6 holds the sweep's outcomes to what the paper and the corpus
// promise: patched variants never manifest, no trial panics, and over the
// quota nodeFZ exposes more bugs than vanilla scheduling.
func checkFig6(r *report, all, t *tally) {
	r.check(all.fixedManifest == 0, "%d of %d patched trials manifested", all.fixedManifest, all.fixedTrials)
	r.check(all.panics == 0, "%d trials panicked", all.panics)
	r.check(t.fzManifest > t.vanillaManifest, "nodeFZ manifested %d times, nodeV %d: want more under nodeFZ", t.fzManifest, t.vanillaManifest)
}

// outcomeKey renders a trial's outcome for exact comparison.
func outcomeKey(out bugs.Outcome, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%t %s", out.Manifested, out.Note)
}

// fig6Traced is the fig6-sweep workload traced. Half the run is the
// overhead matrix over the sweep's trials (which also yields the untraced
// per-trial reference, the harvest spans and the exact work counts); the
// other half is the sweep with a span around the world build and one
// around App.Run, under the CPU profiler.
func fig6Traced(o options, r *report) error {
	apps := bugs.Fig6Set()
	blockAt := func(b int) []trial { return block(apps, o.seed, b) }
	m := runMatrix(blockAt, o.duration/2, fig6CountBlocks)
	m.report(r)
	m.counts.report(r)

	sp, err := spanPass(blockAt, o.duration/2)
	if err != nil {
		return err
	}
	sp.report(r, m.wallPerTrial(cfgPlain))
	r.set("sched.types_us", "us", m.typesUS/float64(m.typesN))
	r.set("oracle.coverage_us", "us", m.covUS/float64(m.covN))
	noCampaignLayers(r)

	r.attempted = sp.t.trials + m.trials + m.failures
	r.failed = sp.t.failures() + m.failures
	r.check(r.failed == 0, "%d trials failed", r.failed)
	return nil
}

// fig6CountBlocks is how many matrix blocks the exact work counts cover.
const fig6CountBlocks = 10

// spanResult is the traced sweep: spans around each trial's world build
// and App.Run.
type spanResult struct {
	beginUS, runUS float64
	n              int
	wall           time.Duration
	t              tally
	cpu            map[string]float64
	cpuSamples     int64
}

// spanPass runs the sweep's trials for d under the CPU profiler, with a
// span around the world build (clock and scheduler) and one around
// App.Run.
func spanPass(blockAt func(int) []trial, d time.Duration) (*spanResult, error) {
	sp := &spanResult{}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	start := time.Now()
	deadline := start.Add(d)
pass:
	for b := 0; ; b++ {
		for _, tr := range blockAt(b) {
			if sp.n > 0 && time.Now().After(deadline) {
				break pass
			}
			t0 := time.Now()
			rc := tr.world()
			t1 := time.Now()
			out, err := tr.exec(rc)
			t2 := time.Now()
			sp.t.add(tr, out, err)
			sp.n++
			sp.beginUS += us(t1.Sub(t0))
			sp.runUS += us(t2.Sub(t1))
		}
	}
	sp.wall = time.Since(start)
	pprof.StopCPUProfile()
	var err error
	sp.cpu, sp.cpuSamples, err = cpuShares(prof.Bytes())
	return sp, err
}

// report sets the span metrics and reconciles them against the untraced
// per-trial time measured alongside.
func (sp *spanResult) report(r *report, untracedUS float64) {
	n := float64(sp.n)
	r.set("bugs.begin_us", "us", sp.beginUS/n)
	r.set("bugs.run_us", "us", sp.runUS/n)
	reconcile(r, untracedUS, us(sp.wall)/n, (sp.beginUS+sp.runUS)/n)
	setCPU(r, sp.cpu, sp.cpuSamples)
}

// reconcile sets the ledger check: how much tracing costs per trial, and
// the share of the untraced per-trial time the spans leave unexplained.
func reconcile(r *report, untracedUS, tracedUS, spansUS float64) {
	r.set("trace.untraced_trial_us", "us", untracedUS)
	r.set("trace.traced_trial_us", "us", tracedUS)
	r.set("trace.overhead_us", "us", tracedUS-untracedUS)
	r.set("campaign.unexplained_frac", "frac", (untracedUS-spansUS)/untracedUS)
	r.linef("ledger: untraced %.2f µs/trial, traced %.2f µs/trial, spans cover %.2f µs", untracedUS, tracedUS, spansUS)
}

func setCPU(r *report, shares map[string]float64, samples int64) {
	for _, b := range cpuBuckets {
		r.set("cpu_frac."+b, "frac", shares[b])
	}
	r.linef("cpu profile: %d samples", samples)
}
