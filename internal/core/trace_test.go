package core

import (
	"bytes"
	"testing"
	"time"

	"nodefz/internal/eventloop"
)

func TestRecordingCapturesDecisions(t *testing.T) {
	rec := NewRecording(NewScheduler(StandardParams(), 5))
	if rec.Name() != "nodeFZ(recorded)" {
		t.Errorf("name = %q", rec.Name())
	}
	if !rec.Serialize() {
		t.Error("Serialize not forwarded")
	}
	evs := mkEvents(6)
	run, deferred := rec.ShuffleReady(evs, nil, nil)
	rec.FilterTimers(3)
	rec.DeferClose("h")
	rec.PickTask(4)
	if _, _, _ = rec.WaitPolicy(); false {
		t.Fail()
	}
	tr := rec.Trace()
	if len(tr.Shuffle) != 1 || tr.Shuffle[0].N != 6 {
		t.Fatalf("shuffle trace = %+v", tr.Shuffle)
	}
	if len(tr.Shuffle[0].RunOrder)+len(tr.Shuffle[0].Deferred) != 6 {
		t.Fatal("shuffle trace lost events")
	}
	if len(run)+len(deferred) != 6 {
		t.Fatal("recording perturbed the decision")
	}
	if len(tr.Timers) != 1 || tr.Timers[0].Due != 3 {
		t.Fatalf("timer trace = %+v", tr.Timers)
	}
	if len(tr.Close) != 1 || len(tr.Pick) != 1 || tr.Pick[0].N != 4 {
		t.Fatalf("close/pick traces = %+v %+v", tr.Close, tr.Pick)
	}
}

func TestReplayReproducesDecisions(t *testing.T) {
	recorded := NewRecording(NewScheduler(StandardParams(), 42))
	evs := mkEvents(8)
	wantRun, wantDeferred := recorded.ShuffleReady(evs, nil, nil)
	wantTimerRun, wantDelay := recorded.FilterTimers(5)
	wantClose := recorded.DeferClose("x")
	wantPick := recorded.PickTask(6)

	rep := NewReplay(recorded.Trace(), NewScheduler(StandardParams(), 999))
	gotRun, gotDeferred := rep.ShuffleReady(evs, nil, nil)
	if len(gotRun) != len(wantRun) || len(gotDeferred) != len(wantDeferred) {
		t.Fatal("replayed shuffle shape differs")
	}
	for i := range wantRun {
		if gotRun[i] != wantRun[i] {
			t.Fatal("replayed run order differs")
		}
	}
	run, delay := rep.FilterTimers(5)
	if run != wantTimerRun || delay != wantDelay {
		t.Fatalf("replayed timers (%d,%v) != (%d,%v)", run, delay, wantTimerRun, wantDelay)
	}
	if rep.DeferClose("x") != wantClose {
		t.Fatal("replayed close differs")
	}
	if rep.PickTask(6) != wantPick {
		t.Fatal("replayed pick differs")
	}
	if rep.Misses() != 0 {
		t.Fatalf("misses = %d on a faithful replay", rep.Misses())
	}
}

func TestReplayFallsBackOnMismatch(t *testing.T) {
	recorded := NewRecording(NewScheduler(StandardParams(), 1))
	recorded.FilterTimers(3)
	rep := NewReplay(recorded.Trace(), NewNoFuzzScheduler())
	// Live call has a different due count: the stream entry is skipped and
	// the base (no-fuzz: run everything) answers.
	run, delay := rep.FilterTimers(7)
	if run != 7 || delay != 0 {
		t.Fatalf("fallback gave (%d, %v)", run, delay)
	}
	if rep.Misses() == 0 {
		t.Fatal("mismatch not counted")
	}
	// Exhausted streams also fall back — to the base scheduler's own
	// decision stream, so compare against an identically seeded twin (the
	// value itself is an arbitrary function of the RNG stream).
	if i, want := rep.PickTask(3), NewNoFuzzScheduler().PickTask(3); i != want {
		t.Fatalf("fallback pick = %d, base gives %d", i, want)
	}
	if rep.DeferClose("h") {
		t.Fatal("fallback close deferred under no-fuzz base")
	}
	r, d := rep.ShuffleReady(mkEvents(2), nil, nil)
	if len(r) != 2 || len(d) != 0 {
		t.Fatal("fallback shuffle wrong")
	}
}

func TestTraceEncodeDecodeRoundTrip(t *testing.T) {
	tr := &Trace{
		Timers:  []TimerDecision{{Due: 3, Run: 1, Delay: 5 * time.Millisecond}},
		Shuffle: []ShuffleDecision{{N: 3, RunOrder: []int{2, 0}, Deferred: []int{1}}},
		Close:   []bool{true, false},
		Pick:    []PickDecision{{N: 4, I: 2}},
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Timers) != 1 || back.Timers[0].Delay != 5*time.Millisecond {
		t.Fatalf("timers = %+v", back.Timers)
	}
	if len(back.Shuffle) != 1 || back.Shuffle[0].RunOrder[0] != 2 {
		t.Fatalf("shuffle = %+v", back.Shuffle)
	}
	if !back.Close[0] || back.Close[1] {
		t.Fatalf("close = %v", back.Close)
	}
	if _, err := DecodeTrace(bytes.NewBufferString("{")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

// TestRecordReplayEndToEnd records a fuzzed loop run and replays its
// decisions over the same program: the replay must complete with zero or
// near-zero misses and produce the same amount of work.
func TestRecordReplayEndToEnd(t *testing.T) {
	program := func(l *eventloop.Loop) *int {
		n := new(int)
		for i := 0; i < 6; i++ {
			l.SetTimeout(time.Duration(i%2)*time.Millisecond, func() { *n++ })
			l.QueueWork("w", func() (any, error) { return nil, nil }, func(any, error) { *n++ })
		}
		return n
	}
	runWith := func(s eventloop.Scheduler) int {
		l := eventloop.New(eventloop.Options{Scheduler: s})
		n := program(l)
		if err := l.Run(); err != nil {
			t.Fatal(err)
		}
		return *n
	}

	rec := NewRecording(NewScheduler(StandardParams(), 11))
	if got := runWith(rec); got != 12 {
		t.Fatalf("recorded run did %d/12 callbacks", got)
	}
	rep := NewReplay(rec.Trace(), NewScheduler(StandardParams(), 12))
	if got := runWith(rep); got != 12 {
		t.Fatalf("replayed run did %d/12 callbacks", got)
	}
	t.Logf("replay misses: %d", rep.Misses())
}

// TestRecordingWrapsSystematic: the recorder composes with any scheduler,
// including the systematic one — so a manifesting delay vector found by
// the explorer can be captured as a decision trace and replayed.
func TestRecordingWrapsSystematic(t *testing.T) {
	sys := NewSystematic([]int{0, 2})
	rec := NewRecording(sys)
	l := eventloop.New(eventloop.Options{Scheduler: rec})
	done := 0
	for i := 0; i < 4; i++ {
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
		t.Fatal("hung")
	}
	if done != 8 {
		t.Fatalf("done = %d/8", done)
	}
	tr := rec.Trace()
	total := len(tr.Timers) + len(tr.Shuffle) + len(tr.Close) + len(tr.Pick)
	if total == 0 {
		t.Fatal("nothing recorded")
	}

	// Replay the captured decisions over the same program.
	rep := NewReplay(tr, NewNoFuzzScheduler())
	l2 := eventloop.New(eventloop.Options{Scheduler: rep})
	done2 := 0
	for i := 0; i < 4; i++ {
		l2.SetTimeout(time.Millisecond, func() { done2++ })
		l2.QueueWork("w", func() (any, error) { return nil, nil }, func(any, error) { done2++ })
	}
	go func() { finish <- l2.Run() }()
	select {
	case err := <-finish:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("replay hung")
	}
	if done2 != 8 {
		t.Fatalf("replay done = %d/8", done2)
	}
}
