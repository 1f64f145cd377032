package eventloop

import (
	"testing"
	"time"

	"nodefz/internal/metrics"
	"nodefz/internal/vclock"
)

// TestVirtualClockTimerChain: a chain of 100ms timers totalling 10s of
// simulated waiting must complete in far less wall time, with every timer
// observing the virtual deadline ordering.
func TestVirtualClockTimerChain(t *testing.T) {
	clk := vclock.NewVirtual()
	l := New(Options{Clock: clk})
	var fired int
	var arm func()
	arm = func() {
		fired++
		if fired < 100 {
			l.SetTimeout(100*time.Millisecond, arm)
		}
	}
	l.SetTimeout(100*time.Millisecond, arm)
	wall0 := time.Now()
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 100 {
		t.Fatalf("fired %d timers, want 100", fired)
	}
	if w := time.Since(wall0); w > 2*time.Second {
		t.Fatalf("10s of virtual timer waits took %v of wall time", w)
	}
}

// TestVirtualClockInterval: periodic timers re-arm off the virtual clock.
func TestVirtualClockInterval(t *testing.T) {
	clk := vclock.NewVirtual()
	l := New(Options{Clock: clk})
	var ticks int
	var tm *Timer
	tm = l.SetInterval(50*time.Millisecond, func() {
		ticks++
		if ticks == 20 {
			tm.Stop()
		}
	})
	wall0 := time.Now()
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 20 {
		t.Fatalf("ticks = %d, want 20", ticks)
	}
	if w := time.Since(wall0); w > 2*time.Second {
		t.Fatalf("1s of virtual interval waits took %v of wall time", w)
	}
}

// TestVirtualClockQueueWork: worker tasks and their completions must not
// wedge the virtual clock (the loop's poll wait and the idle workers all
// block on it simultaneously).
func TestVirtualClockQueueWork(t *testing.T) {
	clk := vclock.NewVirtual()
	l := New(Options{Clock: clk, PoolSize: 2})
	var done int
	for i := 0; i < 10; i++ {
		l.QueueWork("w", func() (any, error) { return nil, nil }, func(any, error) {
			done++
		})
	}
	// A timer alongside the work exercises poll-timeout vs work-completion
	// wakeups under the veto protocol.
	var timerRan bool
	l.SetTimeout(10*time.Millisecond, func() { timerRan = true })
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 10 || !timerRan {
		t.Fatalf("done=%d timerRan=%v, want 10/true", done, timerRan)
	}
}

// TestBusyLoopRaisesLag: with a registry, every fired timer records its
// lateness — the clock time at firing minus its deadline — into
// "loop.lag_ns". A callback that keeps the loop busy for 3ms ahead of a
// timer due at 1ms makes that timer fire 2ms late.
func TestBusyLoopRaisesLag(t *testing.T) {
	reg := metrics.NewRegistry()
	l := New(Options{Clock: vclock.NewVirtual(), Metrics: reg})
	l.SetImmediate(func() { l.Clock().Charge(3 * time.Millisecond) })
	l.SetTimeout(time.Millisecond, func() {})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	h := reg.Snapshot().Histograms["loop.lag_ns"]
	want := int64(2 * time.Millisecond)
	if h.Count != 1 || h.Sum != want || h.Min != want || h.Max != want {
		t.Fatalf("loop.lag_ns = %+v, want one sample of %v", h, 2*time.Millisecond)
	}
}

// TestNoRegistryResolvesNoInstrument: a loop built without a registry
// resolves no instrument, so it times no phase and no timer.
func TestNoRegistryResolvesNoInstrument(t *testing.T) {
	l := New(Options{Clock: vclock.NewVirtual()})
	if l.lagNS != nil {
		t.Fatal("loop without a registry resolved loop.lag_ns")
	}
	for p := range l.phaseCB {
		if l.phaseCB[p] != nil || l.phaseNS[p] != nil {
			t.Fatalf("loop without a registry resolved the %s phase instruments", phaseNames[p])
		}
	}
}
