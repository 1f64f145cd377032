package harness

import (
	"fmt"
	"reflect"
	"testing"

	"nodefz/internal/core"
	"nodefz/internal/eventloop"
)

// driveScheduler exercises every decision hook with a fixed synthetic call
// sequence — no live loop, so no timing sensitivity — and returns the full
// decision trace plus the decision counters. Two schedulers constructed
// identically must produce identical results; that is the contract replay
// (§6) and the seed-determinism guarantee rest on.
func driveScheduler(s eventloop.Scheduler) (*core.Trace, core.DecisionCounters) {
	rec := core.NewRecording(s)
	for round := 0; round < 200; round++ {
		rec.FilterTimers(round%7 + 1)
		ready := make([]*eventloop.Event, round%6+2)
		for i := range ready {
			ready[i] = &eventloop.Event{Kind: "net-read", Label: fmt.Sprintf("c%d", i)}
		}
		rec.ShuffleReady(ready, nil, nil)
		rec.DeferClose(fmt.Sprintf("h%d", round%4))
		rec.PickTask(round%5 + 1)
	}
	dec, _ := core.DecisionsOf(rec)
	return rec.Trace(), dec
}

// TestSeedDeterminism: the same seed and mode must yield the identical
// decision sequence, and distinct seeds must diverge. This is the regression
// guard for the fuzzer's reproducibility story ("rerun with -seed N").
func TestSeedDeterminism(t *testing.T) {
	for _, mode := range []Mode{ModeFZ, ModeGuided} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t1, d1 := driveScheduler(SchedulerFor(mode, 42))
			t2, d2 := driveScheduler(SchedulerFor(mode, 42))
			if !reflect.DeepEqual(t1, t2) {
				t.Errorf("same seed produced different decision traces")
			}
			if d1 != d2 {
				t.Errorf("same seed produced different decision counters:\n %+v\n %+v", d1, d2)
			}
			if d1.Total() == 0 {
				t.Errorf("driver made no countable decisions — test is vacuous")
			}

			t3, d3 := driveScheduler(SchedulerFor(mode, 43))
			if reflect.DeepEqual(t1, t3) && d1 == d3 {
				t.Errorf("different seeds produced identical decision sequences")
			}
		})
	}
}

// TestNoFuzzDeterminism: the no-fuzz configuration makes no random choices,
// so any two instances agree regardless of seed and defer nothing.
func TestNoFuzzDeterminism(t *testing.T) {
	t1, d1 := driveScheduler(SchedulerFor(ModeNFZ, 1))
	t2, d2 := driveScheduler(SchedulerFor(ModeNFZ, 99))
	if !reflect.DeepEqual(t1, t2) || d1 != d2 {
		t.Errorf("nodeNFZ decisions vary across instances")
	}
	// Deferral decisions are parameter-gated to zero under nodeNFZ. Lookahead
	// picks are not asserted: the synthetic driver passes windows n > 1 that
	// a real run never produces under WorkerDoF 0.
	if d1.TimersDeferred != 0 || d1.EventsDeferred != 0 || d1.ClosesDeferred != 0 {
		t.Errorf("nodeNFZ deferred work: %+v", d1)
	}
}
