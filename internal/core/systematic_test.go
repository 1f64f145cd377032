package core

import (
	"testing"
	"time"

	"nodefz/internal/eventloop"
)

func TestSystematicNoDelaysIsNoFuzz(t *testing.T) {
	s := NewSystematic(nil)
	if run, delay := s.FilterTimers(4); run != 4 || delay != 0 {
		t.Fatalf("FilterTimers = (%d, %v)", run, delay)
	}
	evs := mkEvents(3)
	run, deferred := s.ShuffleReady(evs, nil, nil)
	if len(run) != 3 || len(deferred) != 0 {
		t.Fatal("shuffle perturbed without delays")
	}
	for i, e := range run {
		if e != evs[i] {
			t.Fatal("order changed")
		}
	}
	if s.DeferClose("x") {
		t.Fatal("close deferred without delays")
	}
	if s.PickTask(5) != 0 {
		t.Fatal("pick perturbed without delays")
	}
	if !s.Serialize() {
		t.Fatal("systematic scheduler does not serialize")
	}
}

func TestSystematicCountsDecisionPoints(t *testing.T) {
	s := NewSystematic(nil)
	s.FilterTimers(2)                     // point 0
	s.FilterTimers(0)                     // not a point (nothing due)
	s.ShuffleReady(mkEvents(3), nil, nil) // point 1
	s.ShuffleReady(mkEvents(1), nil, nil) // not a point (single event)
	s.DeferClose("h")                     // point 2
	s.PickTask(4)                         // point 3
	s.PickTask(1)                         // not a point
	if got := s.Points(); got != 4 {
		t.Fatalf("Points = %d, want 4", got)
	}
}

func TestSystematicPerturbsExactlyAtDelayPoints(t *testing.T) {
	s := NewSystematic([]int{1, 3})
	// Point 0: no perturbation.
	if run, _ := s.FilterTimers(2); run != 2 {
		t.Fatal("point 0 perturbed")
	}
	// Point 1: perturb (defer all timers with the 5ms delay).
	run, delay := s.FilterTimers(2)
	if run != 0 || delay != 5*time.Millisecond {
		t.Fatalf("point 1 = (%d, %v)", run, delay)
	}
	// Point 2: no perturbation.
	evs := mkEvents(3)
	r, d := s.ShuffleReady(evs, nil, nil)
	if len(r) != 3 || len(d) != 0 {
		t.Fatal("point 2 perturbed")
	}
	// Point 3: perturb (rotate + defer head).
	r, d = s.ShuffleReady(evs, nil, nil)
	if len(r) != 2 || len(d) != 1 || d[0] != evs[0] {
		t.Fatalf("point 3: run=%d deferred=%d", len(r), len(d))
	}
	// Point 4: pick default again.
	if s.PickTask(3) != 0 {
		t.Fatal("point 4 perturbed")
	}
}

func TestSystematicDrivesALoop(t *testing.T) {
	// Perturb the first few decision points of a real run; everything must
	// still complete (legality).
	s := NewSystematic([]int{0, 1, 2})
	l := eventloop.New(eventloop.Options{Scheduler: s})
	done := 0
	for i := 0; i < 5; i++ {
		l.SetTimeout(time.Millisecond, func() { done++ })
		l.QueueWork("w", func() (any, error) { return nil, nil }, func(any, error) { done++ })
	}
	finish := make(chan error, 1)
	go func() { finish <- l.Run() }()
	select {
	case err := <-finish:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("systematic run hung")
	}
	if done != 10 {
		t.Fatalf("done = %d/10", done)
	}
	if s.Points() == 0 {
		t.Fatal("no decision points recorded")
	}
}
