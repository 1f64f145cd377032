package simnet

import (
	"sync"
	"testing"
	"time"

	"nodefz/internal/oracle"
)

// call is a connection-setup flight that runs fn when it arrives.
func call(fn func()) flight {
	return flight{op: opCall, fn: func(oracle.Ref) { fn() }}
}

func TestEngineFiresInDueOrder(t *testing.T) {
	e := newEngine(nil)
	defer e.close()
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	wg.Add(3)
	record := func(v int) func() {
		return func() {
			mu.Lock()
			order = append(order, v)
			mu.Unlock()
			wg.Done()
		}
	}
	// Scheduled out of order; must fire in due order.
	e.schedule(9*time.Millisecond, 0, call(record(3)))
	e.schedule(3*time.Millisecond, 0, call(record(1)))
	e.schedule(6*time.Millisecond, 0, call(record(2)))
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestEngineNotBeforeRaisesDue(t *testing.T) {
	e := newEngine(nil)
	defer e.close()
	notBefore := e.clk.Nanos() + int64(20*time.Millisecond)
	fired := make(chan int64, 1)
	due := e.schedule(time.Millisecond, notBefore, call(func() { fired <- e.clk.Nanos() }))
	if due < notBefore {
		t.Fatalf("due %v before notBefore %v", due, notBefore)
	}
	select {
	case at := <-fired:
		if at < notBefore {
			t.Fatalf("fired at %v, before notBefore %v", at, notBefore)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delivery never fired")
	}
}

func TestEngineCloseDropsPending(t *testing.T) {
	e := newEngine(nil)
	fired := false
	e.schedule(50*time.Millisecond, 0, call(func() { fired = true }))
	e.close()
	e.close() // idempotent
	time.Sleep(80 * time.Millisecond)
	if fired {
		t.Fatal("delivery fired after close")
	}
	// schedule after close is a no-op, not a panic
	e.schedule(time.Millisecond, 0, call(func() { fired = true }))
	time.Sleep(10 * time.Millisecond)
	if fired {
		t.Fatal("delivery fired on closed engine")
	}
}

func TestEngineTieBreakBySequence(t *testing.T) {
	e := newEngine(nil)
	defer e.close()
	due := e.clk.Nanos() + int64(5*time.Millisecond)
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	wg.Add(4)
	for i := 0; i < 4; i++ {
		i := i
		e.schedule(0, due, call(func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			wg.Done()
		}))
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-due deliveries out of schedule order: %v", order)
		}
	}
}

func TestEngineHighVolume(t *testing.T) {
	e := newEngine(nil)
	defer e.close()
	const n = 500
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		e.schedule(time.Duration(i%7)*time.Millisecond, 0, call(wg.Done))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("not all deliveries fired")
	}
}
