package eventloop_test

import (
	"testing"
	"time"

	"nodefz/internal/core"
	"nodefz/internal/eventloop"
	"nodefz/internal/metrics"
	"nodefz/internal/vclock"
)

// TestFuzzStatsCountDeferrals pins the loop's bookkeeping of scheduler
// decisions: with maximal deferral probabilities, the deferred counters
// must move while everything still completes.
func TestFuzzStatsCountDeferrals(t *testing.T) {
	// Note: 100% timer deferral would livelock (every due timer re-deferred
	// each iteration, forever); 90% defers plenty while guaranteeing
	// progress.
	p := core.StandardParams()
	p.TimerDeferralPct = 90
	p.TimerDeferralDelay = 0 // keep the test fast; legality is unchanged
	p.EpollDeferralPct = 50
	p.CloseDeferralPct = 50
	l := eventloop.New(eventloop.Options{Scheduler: core.NewScheduler(p, 5)})

	fired := 0
	for i := 0; i < 5; i++ {
		l.SetTimeout(time.Millisecond, func() { fired++ })
	}
	events := 0
	src := l.NewSource("s")
	closeRan := false
	l.SetTimeout(2*time.Millisecond, func() {
		for i := 0; i < 10; i++ {
			src.Post("net-read", "s", func() { events++ })
		}
		l.SetTimeout(3*time.Millisecond, func() {
			src.Close(func() { closeRan = true })
		})
	})

	done := make(chan error, 1)
	go func() { done <- l.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("loop hung under heavy deferral")
	}

	if fired != 5 || events != 10 || !closeRan {
		t.Fatalf("completion: timers=%d events=%d close=%v", fired, events, closeRan)
	}
	st := l.Stats()
	if st.TimersDeferred == 0 {
		t.Error("90% timer deferral produced zero TimersDeferred")
	}
	if st.EventsDeferred == 0 {
		t.Error("50% event deferral produced zero EventsDeferred over 10 events (possible but wildly unlikely)")
	}
	if st.TimersRun != 7 || st.EventsRun != 10 {
		t.Errorf("run counters: timers=%d events=%d", st.TimersRun, st.EventsRun)
	}
}

// TestFuzzerDelaysShowUpAsLag: the fuzzer's timer deferrals, each followed
// by an injected delay, show in "loop.lag_ns". Under a virtual clock an
// unfuzzed interval timer is never late; a fuzzed one that was deferred is
// late by at least the injected delay.
func TestFuzzerDelaysShowUpAsLag(t *testing.T) {
	maxLag := func(s eventloop.Scheduler) time.Duration {
		reg := metrics.NewRegistry()
		l := eventloop.New(eventloop.Options{Scheduler: s, Clock: vclock.NewVirtual(), Metrics: reg})
		n := 0
		var tick *eventloop.Timer
		tick = l.SetInterval(2*time.Millisecond, func() {
			if n++; n >= 25 {
				tick.Stop()
			}
		})
		if err := l.Run(); err != nil {
			t.Fatal(err)
		}
		return time.Duration(reg.Snapshot().Histograms["loop.lag_ns"].Max)
	}
	if v := maxLag(eventloop.VanillaScheduler{}); v != 0 {
		t.Fatalf("vanilla max lag %v, want 0", v)
	}
	p := core.StandardParams()
	if fz := maxLag(core.NewScheduler(p, 1)); fz < p.TimerDeferralDelay {
		t.Fatalf("fuzzed max lag %v, want at least the %v deferral delay", fz, p.TimerDeferralDelay)
	}
}
