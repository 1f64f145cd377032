package vclock

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestWallDelegates sanity-checks the Wall pass-through.
func TestWallDelegates(t *testing.T) {
	var c Clock = Wall{}
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(t0) < time.Millisecond {
		t.Fatalf("Wall.Sleep(1ms) advanced only %v", c.Since(t0))
	}
	tm := c.NewTimer(time.Microsecond)
	select {
	case <-tm.C:
	case <-time.After(time.Second):
		t.Fatal("Wall timer never fired")
	}
	if tm.Stop() {
		t.Fatal("Stop on fired wall timer reported pending")
	}
}

// TestVirtualSleepAdvances: a lone participant sleeping jumps time forward
// with no wall delay.
func TestVirtualSleepAdvances(t *testing.T) {
	v := NewVirtual()
	v.register()
	defer v.unregister()
	t0 := v.Now()
	wall0 := time.Now()
	v.Sleep(5 * time.Second)
	if got := v.Since(t0); got != 5*time.Second {
		t.Fatalf("virtual time advanced %v, want 5s", got)
	}
	if w := time.Since(wall0); w > time.Second {
		t.Fatalf("virtual sleep took %v of wall time", w)
	}
}

// TestVirtualTimerOrdering: timers fire in deadline order, ties in creation
// order, one per advance.
func TestVirtualTimerOrdering(t *testing.T) {
	v := NewVirtual()
	v.register()
	defer v.unregister()

	a := v.NewTimer(20 * time.Millisecond)
	b := v.NewTimer(10 * time.Millisecond)
	c := v.NewTimer(10 * time.Millisecond) // same deadline as b, later seq

	var order []string
	for i := 0; i < 3; i++ {
		v.block()
		select {
		case <-a.C:
			order = append(order, "a")
		case <-b.C:
			order = append(order, "b")
		case <-c.C:
			order = append(order, "c")
		}
		v.unblock()
	}
	want := []string{"b", "c", "a"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fire order %v, want %v", order, want)
		}
	}
	if v.Since(epoch) != 20*time.Millisecond {
		t.Fatalf("final virtual time %v, want 20ms past epoch", v.Since(epoch))
	}
}

// TestVirtualStopRemovesDeadline: an abandoned-but-stopped timer must not
// block the advance of later deadlines or wedge the clock.
func TestVirtualStopRemovesDeadline(t *testing.T) {
	v := NewVirtual()
	v.register()
	defer v.unregister()

	early := v.NewTimer(time.Millisecond)
	if !early.Stop() {
		t.Fatal("Stop on pending virtual timer reported not pending")
	}
	v.Sleep(time.Second)
	if got := v.Since(epoch); got != time.Second {
		t.Fatalf("virtual time %v, want 1s (stopped timer must not fire first)", got)
	}
}

// TestVirtualGrantVeto: an unclaimed run grant must hold the clock even when
// all participants are blocked.
func TestVirtualGrantVeto(t *testing.T) {
	v := NewVirtual()
	v.register() // lone participant; register hands us the run token
	role := v.allocRole()
	tm := v.NewTimer(time.Hour)

	v.wake(role) // pretend a wake is in flight
	fired := make(chan struct{})
	go func() {
		v.block()
		<-tm.C
		v.unblock()
		close(fired)
	}()
	select {
	case <-fired:
		t.Fatal("clock advanced past an unclaimed run grant")
	case <-time.After(50 * time.Millisecond):
	}
	// Claiming the grant (as the wakee would) and blocking again releases
	// the clock.
	v.awaitTurn(role)
	v.block()
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("clock did not advance after the grant was claimed")
	}
	v.unregister()
}

// TestVirtualGrantFIFO: run grants are honoured strictly in issue order, no
// matter which claimant parks first.
func TestVirtualGrantFIFO(t *testing.T) {
	v := NewVirtual()
	v.register() // we hold the run token while issuing the grants
	rA, rB := v.allocRole(), v.allocRole()

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	v.wake(rA)
	v.wake(rB)
	wg.Add(2)
	go func() {
		defer wg.Done()
		v.start(rB)
		mu.Lock()
		order = append(order, "B")
		mu.Unlock()
		v.block()
	}()
	time.Sleep(20 * time.Millisecond) // let B park on its (later) grant first
	go func() {
		defer wg.Done()
		v.start(rA)
		mu.Lock()
		order = append(order, "A")
		mu.Unlock()
		v.block()
	}()
	v.block() // release the token; the grant queue decides who runs
	wg.Wait()
	if order[0] != "A" || order[1] != "B" {
		t.Fatalf("grant claim order %v, want [A B]", order)
	}
}

// TestVirtualTwoParticipants: the clock only advances when ALL participants
// block, and a worker doing CPU work holds time still.
func TestVirtualTwoParticipants(t *testing.T) {
	v := NewVirtual()
	v.register() // participant 1: the timer waiter
	v.register() // participant 2: the "worker"

	workDone := make(chan struct{})
	go func() {
		// Worker runs unblocked for a while; time must not advance.
		time.Sleep(20 * time.Millisecond)
		if got := v.Since(epoch); got != 0 {
			t.Errorf("virtual time advanced to %v while a participant was runnable", got)
		}
		close(workDone)
		v.block() // park forever
	}()

	tm := v.NewTimer(time.Millisecond)
	<-workDone
	v.block()
	select {
	case <-tm.C:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired after all participants blocked")
	}
	v.unblock()
	v.unregister()
}

// TestVirtualConcurrentSleepers: N registered sleepers with distinct
// durations all wake, and time ends at the max. Run with -race.
func TestVirtualConcurrentSleepers(t *testing.T) {
	v := NewVirtual()
	const n = 8
	var wg sync.WaitGroup
	// register everyone before any sleeper can block: the clock then cannot
	// advance until all n timers exist, so every deadline is epoch-relative.
	for i := 1; i <= n; i++ {
		v.register()
	}
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(d time.Duration) {
			defer wg.Done()
			defer v.unregister()
			v.Sleep(d)
		}(time.Duration(i) * 10 * time.Millisecond)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sleepers wedged")
	}
	if got := v.Since(epoch); got != n*10*time.Millisecond {
		t.Fatalf("final virtual time %v, want %v", got, n*10*time.Millisecond)
	}
}

// TestVirtualUnwake: a grant revoked after a failed coalesced send must
// leave the clock free to advance.
func TestVirtualUnwake(t *testing.T) {
	v := NewVirtual()
	v.register()
	defer v.unregister()
	role := v.allocRole()
	v.wake(role)
	v.unwake(role)
	done := make(chan struct{})
	go func() { v.Sleep(time.Millisecond); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("leaked grant wedged the clock")
	}
}

// TestVirtualCharge: Charge advances time immediately without blocking, and
// deadlines it skips over fire late (not never) on the next advance.
func TestVirtualCharge(t *testing.T) {
	v := NewVirtual()
	v.register()
	defer v.unregister()
	tm := v.NewTimer(time.Millisecond)
	v.Charge(10 * time.Millisecond)
	if got := v.Since(epoch); got != 10*time.Millisecond {
		t.Fatalf("Charge advanced to %v, want 10ms", got)
	}
	v.block()
	select {
	case at := <-tm.C:
		// An overdue timer fires at the current (later) time.
		if got := at.Sub(epoch); got != 10*time.Millisecond {
			t.Fatalf("overdue timer fired at %v past epoch, want 10ms", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("overdue timer never fired after Charge")
	}
	v.unblock()
}

// pendingGrants reads the unclaimed-grant count under the clock's lock.
func (v *Virtual) pendingGrants() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.qlen()
}

// TestWakeupCoalescedGrantRevoked: a granted token that coalesces into a
// pending one, or is drained unconsumed, takes its grant with it, so the
// grant queue matches the tokens in flight and the clock stays free.
func TestWakeupCoalescedGrantRevoked(t *testing.T) {
	v := NewVirtual()
	var w Wakeup
	w.Init(v, 0)
	w.Enter()
	w.Notify(true)
	w.Notify(true) // coalesces
	if n := v.pendingGrants(); n != 1 {
		t.Fatalf("%d grants pending after a coalesced notify, want 1", n)
	}
	if !w.Drain() || w.Drain() {
		t.Fatal("Drain must consume exactly the one pending token")
	}
	if n := v.pendingGrants(); n != 0 {
		t.Fatalf("%d grants pending after Drain, want 0", n)
	}
	done := make(chan struct{})
	go func() { v.Sleep(time.Millisecond); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("a revoked grant wedged the clock")
	}
}

// TestWakeupWaitDeadline: with nothing posted, Wait returns through its
// deadline timer, at exactly the deadline in virtual time.
func TestWakeupWaitDeadline(t *testing.T) {
	v := NewVirtual()
	var w Wakeup
	w.Init(v, 0)
	w.Enter()
	w.Wait(5*time.Millisecond, nil)
	if got := v.Since(epoch); got != 5*time.Millisecond {
		t.Fatalf("Wait returned at %v, want 5ms", got)
	}
	w.Notify(true)
	w.Wait(time.Hour, nil) // a pending granted token returns at once
	if got := v.Since(epoch); got != 5*time.Millisecond {
		t.Fatalf("Wait on a pending granted token advanced the clock to %v", got)
	}
}

// TestWakeupSpawnNotifyJoin: a spawned participant runs only once the
// spawner gives up the token, a granted notify resumes it, a closed done
// channel ends its wait, and Join returns once it has left the clock.
func TestWakeupSpawnNotifyJoin(t *testing.T) {
	v := NewVirtual()
	var owner, w Wakeup
	owner.Init(v, 0)
	owner.Enter()
	w.Init(v, 0)
	var wg sync.WaitGroup
	var order []string
	done := make(chan struct{})
	w.Spawn(&wg, func() {
		order = append(order, "started")
		w.Wait(-1, nil)
		order = append(order, "notified")
		w.Wait(-1, done)
		order = append(order, "done")
	})
	order = append(order, "spawner")
	v.Sleep(time.Millisecond) // the participant runs and parks
	w.Notify(true)
	v.Sleep(time.Millisecond)
	close(done)
	Join(v, &wg)
	want := []string{"spawner", "started", "notified", "done"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("run order %v, want %v", order, want)
	}
	if got := v.Since(epoch); got != 2*time.Millisecond {
		t.Fatalf("virtual time %v, want 2ms", got)
	}
}

// TestCondGrantsOneTurnPerWaiter: Signal grants a turn only while some
// waiter has none pending, and the woken waiter resumes through it.
func TestCondGrantsOneTurnPerWaiter(t *testing.T) {
	v := NewVirtual()
	var owner, w Wakeup
	owner.Init(v, 0)
	owner.Enter()
	w.Init(v, 0)
	var mu sync.Mutex
	var c Cond
	c.Init(&w, &mu)
	var wg sync.WaitGroup
	ready, woken := false, false
	w.Spawn(&wg, func() {
		mu.Lock()
		for !ready {
			c.Wait()
		}
		woken = true
		mu.Unlock()
	})
	v.Sleep(time.Millisecond) // the waiter parks
	mu.Lock()
	ready = true
	c.Signal()
	c.Signal() // the one waiter already has a grant pending
	mu.Unlock()
	if n := v.pendingGrants(); n != 1 {
		t.Fatalf("%d grants pending for one waiter, want 1", n)
	}
	Join(v, &wg)
	if !woken {
		t.Fatal("signalled waiter never resumed")
	}
}

// TestWakeupWall: on the wall clock the same primitives work without any
// participant accounting.
func TestWakeupWall(t *testing.T) {
	var w Wakeup
	w.Init(Wall{}, 0)
	var wg sync.WaitGroup
	w.Spawn(&wg, func() { w.Wait(-1, nil) })
	w.Notify(true)
	Join(Wall{}, &wg)
	start := time.Now()
	w.Wait(time.Millisecond, nil)
	if time.Since(start) < time.Millisecond {
		t.Fatal("Wall Wait returned before its deadline")
	}
}
