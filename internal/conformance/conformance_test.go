package conformance

import (
	"testing"

	"nodefz/internal/core"
	"nodefz/internal/eventloop"
	"nodefz/internal/vclock"
)

func schedulers(seed int64) map[string]func() eventloop.Scheduler {
	return map[string]func() eventloop.Scheduler{
		"nodeV":   func() eventloop.Scheduler { return eventloop.VanillaScheduler{} },
		"nodeNFZ": func() eventloop.Scheduler { return core.NewNoFuzzScheduler() },
		"nodeFZ":  func() eventloop.Scheduler { return core.NewScheduler(core.StandardParams(), seed) },
		"guided":  func() eventloop.Scheduler { return core.NewGuidedScheduler(seed) },
	}
}

// TestSuiteUnderEveryScheduler is the §4.4 fidelity property: every
// documented guarantee holds whichever scheduler runs the loop. Each loop
// runs on its own virtual clock, so the suite's timers and simulated
// latencies cost no wall time.
func TestSuiteUnderEveryScheduler(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for name := range schedulers(0) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				mk := schedulers(seed)[name]
				for _, sc := range Suite() {
					newLoop := func() *eventloop.Loop {
						return eventloop.New(eventloop.Options{Scheduler: mk(), Clock: vclock.NewVirtual()})
					}
					if err := sc.Run(newLoop, seed); err != nil {
						t.Errorf("seed %d, %s: %v", seed, sc.Name, err)
					}
				}
			}
		})
	}
}

// TestRunAllReportsNoFailures runs the suite through RunAll on the wall
// clock, as BenchmarkFidelity does and `fzbench -exp fidelity` does without
// -virtual-time: the suite's one check of real-time timers and latencies.
func TestRunAllReportsNoFailures(t *testing.T) {
	newLoop := func() *eventloop.Loop { return eventloop.New(eventloop.Options{}) }
	if errs := RunAll(newLoop, 42); len(errs) != 0 {
		t.Fatalf("failures: %v", errs)
	}
}
