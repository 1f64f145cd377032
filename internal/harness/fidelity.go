package harness

import (
	"fmt"
	"io"

	"nodefz/internal/bugs"
	"nodefz/internal/conformance"
	"nodefz/internal/eventloop"
)

// FidelityResult summarizes a §4.4-style fidelity run: the runtime's own
// conformance suite executed under the fuzzing scheduler across several
// seeds. Failures list every scenario that violated a documented guarantee
// (expected empty: the fuzzer is legal).
type FidelityResult struct {
	Mode      Mode
	Seeds     int
	Scenarios int
	Failures  []string
}

// Fidelity runs the conformance suite under mode for seeds different seeds,
// each loop on the trial clock (bugs.TrialClock).
func Fidelity(mode Mode, seeds int) FidelityResult {
	res := FidelityResult{Mode: mode, Seeds: seeds, Scenarios: len(conformance.Suite())}
	for s := 0; s < seeds; s++ {
		seed := int64(s * 271)
		newLoop := func() *eventloop.Loop {
			return eventloop.New(eventloop.Options{Scheduler: SchedulerFor(mode, seed), Clock: bugs.TrialClock()})
		}
		for _, err := range conformance.RunAll(newLoop, seed) {
			res.Failures = append(res.Failures, fmt.Sprintf("seed %d: %v", seed, err))
		}
	}
	return res
}

// WriteFidelity renders the result.
func WriteFidelity(w io.Writer, res FidelityResult) {
	fmt.Fprintf(w, "Fidelity (§4.4): conformance suite under %s, %d scenarios x %d seeds\n",
		res.Mode, res.Scenarios, res.Seeds)
	if len(res.Failures) == 0 {
		fmt.Fprintf(w, "PASS: every documented guarantee held under the fuzzer\n")
		return
	}
	fmt.Fprintf(w, "FAIL: %d violations\n", len(res.Failures))
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  %s\n", f)
	}
}

// GuidedResult is the §5.2.3 experiment: the KUE-2014 race against time
// under all four configurations.
type GuidedResult struct {
	Trials int
	Rates  map[Mode]Rate
}

// Guided runs the §5.2.3 experiment.
func Guided(trials int, baseSeed int64) GuidedResult {
	app := mustApp("KUE-2014")
	res := GuidedResult{Trials: trials, Rates: make(map[Mode]Rate)}
	for _, m := range []Mode{ModeVanilla, ModeNFZ, ModeFZ, ModeGuided} {
		res.Rates[m] = ReproRate(app, m, trials, baseSeed)
	}
	return res
}

// WriteGuided renders the result.
func WriteGuided(w io.Writer, res GuidedResult) {
	fmt.Fprintf(w, "Guided fuzzing (§5.2.3): KUE-2014 race against time, %d trials per mode\n\n", res.Trials)
	for _, m := range []Mode{ModeVanilla, ModeNFZ, ModeFZ, ModeGuided} {
		r := res.Rates[m]
		fmt.Fprintf(w, "%-15s |%s %d/%d\n", m, bar(r.Fraction(), 40), r.Manifested, r.Trials)
	}
	base := res.Rates[ModeFZ].Fraction()
	if base > 0 {
		fmt.Fprintf(w, "\nguided/standard manifestation ratio: %.1fx (paper: 3/50 -> 13/50, ~4.3x)\n",
			res.Rates[ModeGuided].Fraction()/base)
	}
}
