package eventloop_test

// Black-box tests of the loop under the actual fuzzing scheduler (the
// package is eventloop_test to import internal/core without a cycle).

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nodefz/internal/core"
	"nodefz/internal/eventloop"
	"nodefz/internal/sched"
)

func runFuzzed(t *testing.T, l *eventloop.Loop) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- l.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("fuzzed loop did not terminate")
	}
}

// TestFuzzedLoopMixedWorkload drives a busy workload under several fuzzing
// seeds and asserts the loop's invariants hold: everything completes,
// nothing runs twice, timers are never early.
func TestFuzzedLoopMixedWorkload(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			l := eventloop.New(eventloop.Options{
				Scheduler: core.NewScheduler(core.StandardParams(), seed),
			})
			var timers, works, immediates, ticks atomic.Int64
			start := time.Now()
			earliest := int64(1 << 62)
			for i := 0; i < 10; i++ {
				d := time.Duration(i) * time.Millisecond
				l.SetTimeout(d, func() {
					timers.Add(1)
					if e := int64(time.Since(start) - d); e < atomic.LoadInt64(&earliest) {
						atomic.StoreInt64(&earliest, e)
					}
				})
				l.QueueWork("w", func() (any, error) { return i, nil }, func(any, error) {
					works.Add(1)
					l.SetImmediate(func() { immediates.Add(1) })
					l.NextTick(func() { ticks.Add(1) })
				})
			}
			runFuzzed(t, l)
			if timers.Load() != 10 || works.Load() != 10 || immediates.Load() != 10 || ticks.Load() != 10 {
				t.Fatalf("counts: timers=%d works=%d immediates=%d ticks=%d, want all 10",
					timers.Load(), works.Load(), immediates.Load(), ticks.Load())
			}
			if earliest < 0 {
				t.Fatalf("a timer fired %v early under the fuzzer", time.Duration(-earliest))
			}
		})
	}
}

// TestFuzzedScheduleDiffersFromVanilla is the point of the tool: same
// program, different type schedules (§5.3).
func TestFuzzedScheduleDiffersFromVanilla(t *testing.T) {
	program := func(l *eventloop.Loop) {
		for i := 0; i < 8; i++ {
			l.SetTimeout(time.Duration(i%3)*time.Millisecond, func() {})
			l.QueueWork("w", func() (any, error) {
				time.Sleep(time.Millisecond)
				return nil, nil
			}, func(any, error) {
				l.SetImmediate(func() {})
			})
		}
	}
	record := func(s eventloop.Scheduler) []string {
		rec := sched.NewRecorder()
		l := eventloop.New(eventloop.Options{Scheduler: s, Recorder: rec})
		program(l)
		runFuzzed(t, l)
		return rec.Types()
	}
	vanilla := record(eventloop.VanillaScheduler{})
	differs := false
	for seed := int64(0); seed < 5; seed++ {
		fz := record(core.NewScheduler(core.StandardParams(), seed))
		if sched.Levenshtein(vanilla, fz) > 0 {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("five fuzzed runs produced schedules identical to vanilla")
	}
}

// TestDeferralEventuallyRuns: with a high deferral rate, events still
// execute (deferral is re-decided each iteration, never a drop).
func TestDeferralEventuallyRuns(t *testing.T) {
	p := core.StandardParams()
	p.EpollDeferralPct = 90
	p.TimerDeferralDelay = 0 // keep the test fast
	l := eventloop.New(eventloop.Options{Scheduler: core.NewScheduler(p, 3)})
	done := 0
	for i := 0; i < 30; i++ {
		l.QueueWork("w", func() (any, error) { return nil, nil }, func(any, error) { done++ })
	}
	runFuzzed(t, l)
	if done != 30 {
		t.Fatalf("done = %d/30 under 90%% deferral", done)
	}
}

// TestSerializedNoOverlap: under the fuzzer, no worker task may overlap a
// loop callback. The loop's depth guard panics on loop-side overlap; this
// checks the worker side with an explicit flag.
func TestSerializedNoOverlap(t *testing.T) {
	l := eventloop.New(eventloop.Options{
		Scheduler: core.NewScheduler(core.StandardParams(), 7),
	})
	var inCallback atomic.Bool
	var overlap atomic.Bool
	for i := 0; i < 20; i++ {
		l.QueueWork("w", func() (any, error) {
			if inCallback.Load() {
				overlap.Store(true)
			}
			time.Sleep(200 * time.Microsecond)
			return nil, nil
		}, func(any, error) {
			inCallback.Store(true)
			time.Sleep(100 * time.Microsecond)
			inCallback.Store(false)
		})
	}
	runFuzzed(t, l)
	if overlap.Load() {
		t.Fatal("a worker task ran while a loop callback was executing")
	}
}

// doneLabels records the labels of executed work-done callbacks.
type doneLabels struct {
	mu     sync.Mutex
	labels []string
}

func (r *doneLabels) Record(kind, label string) {
	if kind == eventloop.KindWorkDone {
		r.mu.Lock()
		r.labels = append(r.labels, label)
		r.mu.Unlock()
	}
}

// TestSerializeShapesThePool: Serialize alone decides the pool New builds.
// A serializing scheduler gets one worker, and each completion is its own
// poll event; the vanilla scheduler gets libuv's four workers, running at
// once, behind the multiplexed done queue.
func TestSerializeShapesThePool(t *testing.T) {
	const tasks = 4 // one per vanilla worker
	for _, s := range []eventloop.Scheduler{core.NewScheduler(core.StandardParams(), 3), eventloop.VanillaScheduler{}} {
		rec := &doneLabels{}
		l := eventloop.New(eventloop.Options{Scheduler: s, Recorder: rec})
		var started, busy, peak atomic.Int64
		for i := 0; i < tasks; i++ {
			l.QueueWork("w", func() (any, error) {
				n := busy.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				started.Add(1)
				// Vanilla workers all run at once: wait for the siblings.
				for deadline := time.Now().Add(5 * time.Second); !s.Serialize() && started.Load() < tasks && time.Now().Before(deadline); {
					time.Sleep(100 * time.Microsecond)
				}
				busy.Add(-1)
				return nil, nil
			}, nil)
		}
		runFuzzed(t, l)
		if s.Serialize() {
			if peak.Load() != 1 {
				t.Errorf("%s: %d tasks ran at once, want 1", s.Name(), peak.Load())
			}
			if len(rec.labels) != tasks || rec.labels[0] != "w" {
				t.Errorf("%s: done callbacks %v, want one per task", s.Name(), rec.labels)
			}
			continue
		}
		if peak.Load() != tasks {
			t.Errorf("%s: %d tasks ran at once, want %d", s.Name(), peak.Load(), tasks)
		}
		if len(rec.labels) == 0 || rec.labels[0] != "done-queue" {
			t.Errorf("%s: done callbacks %v, want the multiplexed done queue", s.Name(), rec.labels)
		}
	}
}
