package eventloop

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"nodefz/internal/sched"
)

func run(t *testing.T, l *Loop) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- l.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("loop did not terminate")
	}
}

func TestLoopExitsImmediatelyWithNoWork(t *testing.T) {
	l := New(Options{})
	run(t, l)
}

func TestSetTimeoutRuns(t *testing.T) {
	l := New(Options{})
	fired := false
	l.SetTimeout(time.Millisecond, func() { fired = true })
	run(t, l)
	if !fired {
		t.Fatal("timer did not fire")
	}
}

func TestTimerNeverFiresEarly(t *testing.T) {
	l := New(Options{})
	const d = 20 * time.Millisecond
	start := time.Now()
	var fired time.Time
	l.SetTimeout(d, func() { fired = time.Now() })
	run(t, l)
	if got := fired.Sub(start); got < d {
		t.Fatalf("timer fired after %v, before its %v deadline", got, d)
	}
}

func TestTimersFireInDeadlineThenRegistrationOrder(t *testing.T) {
	l := New(Options{})
	var order []int
	// Same deadline: registration order must win.
	for i := 0; i < 5; i++ {
		i := i
		l.SetTimeout(5*time.Millisecond, func() { order = append(order, i) })
	}
	// Earlier deadline registered later must still run first.
	l.SetTimeout(time.Millisecond, func() { order = append(order, 99) })
	run(t, l)
	want := []int{99, 0, 1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("got order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got order %v, want %v", order, want)
		}
	}
}

func TestSetIntervalRepeatsUntilStopped(t *testing.T) {
	l := New(Options{})
	n := 0
	var tm *Timer
	tm = l.SetInterval(time.Millisecond, func() {
		n++
		if n == 3 {
			tm.Stop()
		}
	})
	run(t, l)
	if n != 3 {
		t.Fatalf("interval ran %d times, want 3", n)
	}
}

func TestTimerStopPreventsFiring(t *testing.T) {
	l := New(Options{})
	fired := false
	tm := l.SetTimeout(50*time.Millisecond, func() { fired = true })
	l.SetTimeout(time.Millisecond, func() { tm.Stop() })
	run(t, l)
	if fired {
		t.Fatal("stopped timer fired")
	}
	if !tm.stopped {
		t.Fatal("timer does not report stopped")
	}
}

func TestTimerUnrefLetsLoopExit(t *testing.T) {
	l := New(Options{})
	fired := false
	tm := l.SetTimeout(time.Hour, func() { fired = true })
	tm.Unref()
	l.SetTimeout(time.Millisecond, func() {})
	run(t, l) // must exit despite the 1h timer
	if fired {
		t.Fatal("unref'd timer fired")
	}
}

func TestNextTickRunsBeforeOtherEvents(t *testing.T) {
	l := New(Options{})
	var order []string
	l.SetTimeout(time.Millisecond, func() {
		l.SetImmediate(func() { order = append(order, "immediate") })
		l.NextTick(func() { order = append(order, "tick1") })
		l.NextTick(func() {
			order = append(order, "tick2")
			l.NextTick(func() { order = append(order, "tick3") })
		})
		order = append(order, "timer")
	})
	run(t, l)
	want := []string{"timer", "tick1", "tick2", "tick3", "immediate"}
	if len(order) != len(want) {
		t.Fatalf("got %v want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got %v want %v", order, want)
		}
	}
}

func TestQueueMicrotaskRunsBeforeMacrotasksAndRecordsLabel(t *testing.T) {
	rec := sched.NewRecorder()
	l := New(Options{Recorder: rec})
	var order []string
	l.SetTimeout(time.Millisecond, func() {
		l.SetImmediate(func() { order = append(order, "immediate") })
		l.QueueMicrotask(func() {
			order = append(order, "micro1")
			l.QueueMicrotask(func() { order = append(order, "micro2") })
		})
		l.NextTickNamed("flush", func() { order = append(order, "named") })
		order = append(order, "timer")
	})
	run(t, l)
	want := []string{"timer", "micro1", "named", "micro2", "immediate"}
	if len(order) != len(want) {
		t.Fatalf("got %v want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got %v want %v", order, want)
		}
	}
	// Microtasks surface in the recorded schedule as tick-queue entries with
	// their own label, so fuzzed replays and the corpus can tell them apart
	// from nextTick callbacks.
	var labels []string
	for _, e := range rec.Entries() {
		if e.Label == "microtask" || e.Label == "flush" {
			labels = append(labels, e.Label)
		}
	}
	if len(labels) != 3 || labels[0] != "microtask" || labels[1] != "flush" || labels[2] != "microtask" {
		t.Fatalf("recorded microtask labels = %v, want [microtask flush microtask]", labels)
	}
}

func TestImmediatesScheduledByImmediatesRunNextIteration(t *testing.T) {
	rec := sched.NewRecorder()
	l := New(Options{Recorder: rec})
	ran := 0
	l.SetImmediate(func() {
		ran++
		l.SetImmediate(func() { ran++ })
	})
	run(t, l)
	if ran != 2 {
		t.Fatalf("ran %d immediates, want 2", ran)
	}
}

func TestQueueWorkRunsDoneOnLoopWithResult(t *testing.T) {
	l := New(Options{})
	var got any
	var gotErr error
	l.QueueWork("job", func() (any, error) { return 42, nil }, func(res any, err error) {
		got, gotErr = res, err
	})
	run(t, l)
	if got != 42 || gotErr != nil {
		t.Fatalf("done got (%v, %v), want (42, nil)", got, gotErr)
	}
}

func TestQueueWorkPropagatesError(t *testing.T) {
	l := New(Options{})
	boom := errors.New("boom")
	var gotErr error
	l.QueueWork("job", func() (any, error) { return nil, boom }, func(_ any, err error) {
		gotErr = err
	})
	run(t, l)
	if !errors.Is(gotErr, boom) {
		t.Fatalf("got err %v, want %v", gotErr, boom)
	}
}

func TestQueueWorkKeepsLoopAliveUntilDone(t *testing.T) {
	l := New(Options{})
	done := false
	l.QueueWork("slow", func() (any, error) {
		time.Sleep(10 * time.Millisecond)
		return nil, nil
	}, func(any, error) { done = true })
	run(t, l)
	if !done {
		t.Fatal("loop exited before work completed")
	}
}

func TestManyWorkItemsAllComplete(t *testing.T) {
	l := New(Options{})
	var n atomic.Int64
	const total = 200
	for i := 0; i < total; i++ {
		l.QueueWork("w", func() (any, error) { return nil, nil }, func(any, error) {
			n.Add(1)
		})
	}
	run(t, l)
	if n.Load() != total {
		t.Fatalf("completed %d/%d work items", n.Load(), total)
	}
}

func TestSourcePostDeliversEvent(t *testing.T) {
	l := New(Options{})
	src := l.NewSource("conn")
	got := false
	go func() {
		time.Sleep(2 * time.Millisecond)
		src.Post("net-read", "conn", func() {
			got = true
			src.Close(nil)
		})
	}()
	run(t, l)
	if !got {
		t.Fatal("posted event did not run")
	}
}

func TestClosedSourceEventsAreDropped(t *testing.T) {
	l := New(Options{})
	src := l.NewSource("conn")
	dropped := true
	l.SetTimeout(time.Millisecond, func() {
		// Post then close before the poll phase handles the event: the
		// callback must not run.
		src.Post("net-read", "conn", func() { dropped = false })
		src.Close(nil)
	})
	run(t, l)
	if !dropped {
		t.Fatal("event from closed source executed")
	}
}

func TestSourceCloseCallbackRunsInClosePhase(t *testing.T) {
	rec := sched.NewRecorder()
	l := New(Options{Recorder: rec})
	src := l.NewSource("h")
	closed := false
	l.SetTimeout(time.Millisecond, func() { src.Close(func() { closed = true }) })
	run(t, l)
	if !closed {
		t.Fatal("close callback did not run")
	}
	found := false
	for _, e := range rec.Entries() {
		if e.Kind == KindClose && e.Label == "h" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no close entry in schedule: %v", rec.Types())
	}
}

func TestSourceCloseIsIdempotent(t *testing.T) {
	l := New(Options{})
	src := l.NewSource("h")
	n := 0
	l.SetTimeout(time.Millisecond, func() {
		src.Close(func() { n++ })
		src.Close(func() { n++ })
	})
	run(t, l)
	if n != 1 {
		t.Fatalf("close callback ran %d times, want 1", n)
	}
}

func TestStopTerminatesLoop(t *testing.T) {
	l := New(Options{})
	l.SetInterval(time.Millisecond, func() {})
	l.SetTimeout(5*time.Millisecond, func() { l.Stop() })
	run(t, l)
}

func TestRunTwiceSequentiallyWorks(t *testing.T) {
	l := New(Options{})
	n := 0
	l.SetTimeout(time.Millisecond, func() { n++ })
	run(t, l)
	l.SetTimeout(time.Millisecond, func() { n++ })
	run(t, l)
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
}

// TestPhaseOrderWithinIteration: one iteration drains top-level ticks,
// then runs timers, poll events, immediates (check) and close callbacks,
// in that order.
func TestPhaseOrderWithinIteration(t *testing.T) {
	l := New(Options{})
	var order []string
	note := func(name string) func() { return func() { order = append(order, name) } }
	src, h := l.NewSource("s"), l.NewSource("h")
	l.NextTick(note("tick"))
	l.SetTimeout(0, func() {
		order = append(order, "timer")
		h.Close(note("close"))
		l.SetImmediate(note("immediate"))
		src.Post("net-read", "s", func() {
			order = append(order, "event")
			src.Close(nil)
		})
	})
	run(t, l)
	if want := []string{"tick", "timer", "event", "immediate", "close"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if n := l.Stats().Iterations; n != 1 {
		t.Fatalf("ran %d iterations, want 1", n)
	}
}

func TestRecorderSeesKinds(t *testing.T) {
	rec := sched.NewRecorder()
	l := New(Options{Recorder: rec})
	l.SetTimeout(time.Millisecond, func() {
		l.NextTick(func() {})
		l.SetImmediate(func() {})
		l.QueueWork("t", func() (any, error) { return nil, nil }, func(any, error) {})
	})
	run(t, l)
	kinds := make(map[string]bool)
	for _, k := range rec.Types() {
		kinds[k] = true
	}
	for _, want := range []string{KindTimer, KindTick, KindImmediate, KindWork, KindWorkDone} {
		if !kinds[want] {
			t.Errorf("schedule missing kind %q: %v", want, rec.Types())
		}
	}
}

// TestNoOverlappingCallbacks exercises the depth guard: the loop panics if
// two loop callbacks ever overlap, so surviving a busy run is the check.
func TestNoOverlappingCallbacks(t *testing.T) {
	l := New(Options{})
	for i := 0; i < 50; i++ {
		l.SetTimeout(time.Duration(i%5)*time.Millisecond, func() {
			l.NextTick(func() {})
		})
		l.QueueWork("w", func() (any, error) { return i, nil }, func(any, error) {
			l.SetImmediate(func() {})
		})
	}
	run(t, l)
}

func TestTopLevelNextTickDrains(t *testing.T) {
	// Regression: a tick queued outside any callback (module scope) must
	// drain at loop start rather than spin the loop forever.
	l := New(Options{})
	ran := false
	l.NextTick(func() { ran = true })
	run(t, l)
	if !ran {
		t.Fatal("top-level tick never ran")
	}
}
