package vclock

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// steps builds a participant on clk whose successive steps run fns in
// turn; it exits after the last.
func steps(clk Clock, pri int, fns ...func() Wait) *Proc {
	p := new(Proc)
	i := 0
	p.Init(clk, pri, func() Wait {
		if i == len(fns) {
			return Exit()
		}
		i++
		return fns[i-1]()
	})
	return p
}

// logger records "name@elapsed" entries against a virtual clock.
type logger struct {
	v   *Virtual
	log []string
}

func (l *logger) at(name string, w Wait) func() Wait {
	return func() Wait {
		l.log = append(l.log, fmt.Sprintf("%s@%v", name, time.Duration(l.v.Nanos())))
		return w
	}
}

func (l *logger) check(t *testing.T, want ...string) {
	t.Helper()
	if !reflect.DeepEqual(l.log, want) {
		t.Fatalf("run order\n got %v\nwant %v", l.log, want)
	}
}

// mustPanic runs fn and fails unless it panics with a message containing
// substr.
func mustPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), substr) {
			t.Fatalf("recovered %v, want a panic mentioning %q", r, substr)
		}
	}()
	fn()
}

// TestWallDelegates sanity-checks the Wall pass-through.
func TestWallDelegates(t *testing.T) {
	var c Clock = Wall{}
	t0, n0 := c.Now(), c.Nanos()
	c.Charge(time.Millisecond)
	if d := time.Since(t0); d < time.Millisecond {
		t.Fatalf("Wall.Charge(1ms) advanced only %v", d)
	}
	if d := time.Duration(c.Nanos() - n0); d < time.Millisecond {
		t.Fatalf("Wall.Nanos advanced only %v over a 1ms Charge", d)
	}
}

// TestVirtualSleepAdvances: a lone participant sleeping jumps time forward
// with no wall delay, and Run returns once it exits.
func TestVirtualSleepAdvances(t *testing.T) {
	v := NewVirtual()
	l := &logger{v: v}
	p := steps(v, 0, l.at("p", Sleep(5*time.Second)), l.at("p", Exit()))
	wall0 := time.Now()
	p.Run()
	l.check(t, "p@0s", "p@5s")
	if w := time.Since(wall0); w > time.Second {
		t.Fatalf("virtual sleep took %v of wall time", w)
	}
}

// TestVirtualTimerOrdering: deadlines run in time order; equal deadlines by
// priority (After uses the participant's, Sleep always 0), then creation
// order. Spawn order is the order of first steps.
func TestVirtualTimerOrdering(t *testing.T) {
	v := NewVirtual()
	l := &logger{v: v}
	var g Group
	steps(v, 0, l.at("a", After(20*time.Millisecond)), l.at("a", Exit())).Spawn(&g)
	steps(v, 2, l.at("b", After(10*time.Millisecond)), l.at("b", Exit())).Spawn(&g)
	steps(v, 1, l.at("c", After(10*time.Millisecond)), l.at("c", Exit())).Spawn(&g)
	steps(v, 1, l.at("d", After(10*time.Millisecond)), l.at("d", Exit())).Spawn(&g)
	steps(v, 2, l.at("e", Sleep(10*time.Millisecond)), l.at("e", Exit())).Spawn(&g)
	Join(v, &g)
	l.check(t, "a@0s", "b@0s", "c@0s", "d@0s", "e@0s",
		"e@10ms", "c@10ms", "d@10ms", "b@10ms", "a@20ms")
}

// TestVirtualStopRemovesDeadline: a notify ends an After wait and its
// deadline leaves the heap, so time never jumps to it.
func TestVirtualStopRemovesDeadline(t *testing.T) {
	v := NewVirtual()
	l := &logger{v: v}
	var g Group
	a := steps(v, 0, l.at("a", After(time.Millisecond)), l.at("a", Exit()))
	a.Spawn(&g)
	steps(v, 0, func() Wait { a.Notify(true); return Sleep(time.Second) }, l.at("b", Exit())).Spawn(&g)
	Join(v, &g)
	l.check(t, "a@0s", "a@0s", "b@1s")
}

// TestVirtualGrantVeto: while a granted notify holds a run-queue place, no
// deadline runs and time does not move — here a participant that keeps
// requeueing itself through granted self-notifies holds back an overdue
// sleeper.
func TestVirtualGrantVeto(t *testing.T) {
	v := NewVirtual()
	l := &logger{v: v}
	var g Group
	steps(v, 0, l.at("sleeper", Sleep(0)), l.at("sleeper", Exit())).Spawn(&g)
	var busy Proc
	n := 0
	busy.Init(v, 0, func() Wait {
		if got := time.Duration(v.Nanos()); got != 0 {
			t.Fatalf("time moved to %v while a step was runnable", got)
		}
		if n < 100 {
			n++
			busy.Notify(true)
			return Park()
		}
		return l.at("busy", Exit())()
	})
	busy.Spawn(&g)
	Join(v, &g)
	l.check(t, "sleeper@0s", "busy@0s", "sleeper@0s")
	if n != 100 {
		t.Fatalf("busy ran %d requeued steps, want 100", n)
	}
}

// TestVirtualGrantFIFO: notified participants run in notify order, whatever
// order they parked in.
func TestVirtualGrantFIFO(t *testing.T) {
	v := NewVirtual()
	l := &logger{v: v}
	var g Group
	a := steps(v, 0, l.at("a", Park()), l.at("a", Exit()))
	b := steps(v, 0, l.at("b", Park()), l.at("b", Exit()))
	a.Spawn(&g)
	b.Spawn(&g)
	steps(v, 0, func() Wait {
		b.Notify(true)
		a.Notify(false) // a parked participant wakes either way
		return Exit()
	}).Spawn(&g)
	Join(v, &g)
	l.check(t, "a@0s", "b@0s", "b@0s", "a@0s")
}

// TestVirtualTwoParticipants: a step doing CPU work holds time still; the
// other participant's due deadline runs only once that step has waited.
func TestVirtualTwoParticipants(t *testing.T) {
	v := NewVirtual()
	l := &logger{v: v}
	var g Group
	steps(v, 0, l.at("waiter", Sleep(time.Millisecond)), l.at("waiter", Exit())).Spawn(&g)
	steps(v, 0, func() Wait {
		start := time.Now()
		for time.Since(start) < 5*time.Millisecond {
		}
		return l.at("worker", Sleep(time.Second))()
	}, l.at("worker", Exit())).Spawn(&g)
	Join(v, &g)
	l.check(t, "waiter@0s", "worker@0s", "waiter@1ms", "worker@1s")
}

// TestVirtualConcurrentSleepers: spawned sleepers with distinct durations
// all wake, and time ends at the longest.
func TestVirtualConcurrentSleepers(t *testing.T) {
	v := NewVirtual()
	const n = 8
	var g Group
	woke := 0
	for i := 1; i <= n; i++ {
		steps(v, 0, func() Wait { return Sleep(time.Duration(i) * 10 * time.Millisecond) },
			func() Wait { woke++; return Exit() }).Spawn(&g)
	}
	Join(v, &g)
	if woke != n {
		t.Fatalf("%d sleepers woke, want %d", woke, n)
	}
	if got := time.Duration(v.Nanos()); got != n*10*time.Millisecond {
		t.Fatalf("final virtual time %v, want %v", got, n*10*time.Millisecond)
	}
}

// TestVirtualUnwake: Drain revokes a granted token's run-queue place, so
// the participant parks and the clock is free to advance to its deadline.
func TestVirtualUnwake(t *testing.T) {
	v := NewVirtual()
	l := &logger{v: v}
	var p *Proc
	p = steps(v, 0, func() Wait {
		p.Notify(true)
		if !p.Drain() || p.Drain() {
			t.Error("Drain must consume exactly the one pending token")
		}
		return l.at("p", After(time.Millisecond))()
	}, l.at("p", Exit()))
	p.Run()
	l.check(t, "p@0s", "p@1ms")
	if len(v.runq) != 0 {
		t.Fatalf("%d run-queue entries left after Drain", len(v.runq))
	}
}

// TestVirtualCharge: Charge advances time at once, and a deadline it skips
// over runs late, at the current time, not never.
func TestVirtualCharge(t *testing.T) {
	v := NewVirtual()
	l := &logger{v: v}
	var g Group
	steps(v, 0, l.at("a", Sleep(time.Millisecond)), l.at("a", Exit())).Spawn(&g)
	steps(v, 0, func() Wait { v.Charge(10 * time.Millisecond); return l.at("b", Exit())() }).Spawn(&g)
	Join(v, &g)
	l.check(t, "a@0s", "b@10ms", "a@10ms")
}

// TestWakeupCoalescedGrantRevoked: a participant holds at most one token,
// so repeated notifies coalesce into one extra step, and an ungranted
// token makes the next Park return at once without a run-queue place of
// its own; nothing is left queued once the participant exits.
func TestWakeupCoalescedGrantRevoked(t *testing.T) {
	v := NewVirtual()
	l := &logger{v: v}
	var g Group
	var p *Proc
	p = steps(v, 0,
		func() Wait {
			p.Notify(true)
			p.Notify(true) // coalesces
			p.Notify(false)
			return l.at("p", Park())()
		},
		func() Wait {
			p.Notify(false)
			return l.at("p", Park())()
		},
		l.at("p", Exit()))
	p.Spawn(&g)
	Join(v, &g)
	l.check(t, "p@0s", "p@0s", "p@0s")
	if len(v.runq) != 0 {
		t.Fatalf("%d run-queue entries left after the last exit", len(v.runq))
	}
}

// TestWakeupWaitDeadline: with nothing posted, After returns at exactly its
// deadline in virtual time; with a granted token pending it returns at the
// token's run-queue place, with no time passing.
func TestWakeupWaitDeadline(t *testing.T) {
	v := NewVirtual()
	l := &logger{v: v}
	var p *Proc
	p = steps(v, 0,
		l.at("p", After(5*time.Millisecond)),
		func() Wait { p.Notify(true); return l.at("p", After(time.Hour))() },
		l.at("p", Exit()))
	p.Run()
	l.check(t, "p@0s", "p@5ms", "p@5ms")
}

// TestWakeupSpawnNotifyJoin: a spawned participant first runs after its
// spawner's step, a notify resumes it, a step Awaiting a group runs again
// right after the group's last exit, at that moment's queue place, and
// Join from outside any step drives the clock until its group is empty.
func TestWakeupSpawnNotifyJoin(t *testing.T) {
	v := NewVirtual()
	l := &logger{v: v}
	var outer, kids Group
	var k1 *Proc
	k1 = steps(v, 0, l.at("k1", Park()), l.at("k1", Sleep(time.Millisecond)), l.at("k1", Exit()))
	steps(v, 0, func() Wait {
		k1.Spawn(&kids)
		steps(v, 0, l.at("k2", Sleep(2*time.Millisecond)), l.at("k2", Exit())).Spawn(&kids)
		return l.at("parent", Sleep(0))()
	}, func() Wait {
		k1.Notify(true)
		return l.at("parent", Await(&kids))()
	}, l.at("parent", Exit())).Spawn(&outer)
	steps(v, 0, l.at("other", Sleep(2*time.Millisecond)), l.at("other", Exit())).Spawn(&outer)
	Join(v, &outer)
	l.check(t, "parent@0s", "other@0s", "k1@0s", "k2@0s", "parent@0s", "k1@0s",
		"k1@1ms", "other@2ms", "k2@2ms", "parent@2ms")
	Join(v, &kids) // already empty: returns at once
}

// TestVirtualExitRevokesGrant: a granted token still queued when its
// participant exits must not run the participant's next incarnation early
// — the case of a network engine notified before its first step and then
// closed.
func TestVirtualExitRevokesGrant(t *testing.T) {
	v := NewVirtual()
	l := &logger{v: v}
	var g Group
	p := steps(v, 0, l.at("first", Exit()), l.at("second", Sleep(time.Millisecond)), l.at("second", Exit()))
	p.Spawn(&g)
	p.Notify(true) // not parked yet: a second run-queue entry
	Join(v, &g)
	if len(v.runq) != 0 {
		t.Fatal("the exited participant's granted entry is still queued")
	}
	p.Spawn(&g)
	Join(v, &g)
	l.check(t, "first@0s", "second@0s", "second@1ms")
}

// TestVirtualImpossibleCasesPanic: a granted notify to a sleeping or
// awaiting participant, a deadlock, and driving the clock from inside a
// step are bugs, reported as panics rather than hangs.
func TestVirtualImpossibleCasesPanic(t *testing.T) {
	mustPanic(t, "sleeping or awaiting", func() {
		v := NewVirtual()
		var g Group
		s := steps(v, 0, func() Wait { return Sleep(time.Second) })
		s.Spawn(&g)
		steps(v, 0, func() Wait { s.Notify(true); return Exit() }).Spawn(&g)
		Join(v, &g)
	})
	mustPanic(t, "deadlock", func() {
		v := NewVirtual()
		steps(v, 0, Park).Run()
	})
	mustPanic(t, "inside a step", func() {
		v := NewVirtual()
		var g Group
		steps(v, 0, func() Wait { Join(v, &g); return Exit() }).Run()
	})
}

// parity runs one spawn/park/notify/deadline/await scenario on clk.
func parity(clk Clock) []string {
	var log []string
	var g Group
	child := steps(clk, 1,
		Park,
		func() Wait { log = append(log, "child notified"); return After(time.Millisecond) },
		func() Wait { log = append(log, "child deadline"); return Exit() })
	steps(clk, 0,
		func() Wait { child.Spawn(&g); return Sleep(time.Millisecond) },
		func() Wait { child.Notify(true); return Await(&g) },
		func() Wait { log = append(log, "parent joined"); return Exit() }).Run()
	Join(clk, &g)
	return log
}

// TestWakeupWall: the same steps behave the same on the wall clock, where
// every spawned participant runs on a goroutine of its own.
func TestWakeupWall(t *testing.T) {
	v := NewVirtual()
	want := []string{"child notified", "child deadline", "parent joined"}
	if got := parity(v); !reflect.DeepEqual(got, want) {
		t.Fatalf("virtual: %v, want %v", got, want)
	}
	if got := time.Duration(v.Nanos()); got != 2*time.Millisecond {
		t.Fatalf("virtual time %v, want 2ms", got)
	}
	start := time.Now()
	if got := parity(Wall{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("wall: %v, want %v", got, want)
	}
	if time.Since(start) < 2*time.Millisecond {
		t.Fatal("wall waits returned before their deadlines")
	}
}
