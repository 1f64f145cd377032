package pool

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nodefz/internal/oracle"
	"nodefz/internal/vclock"
)

// collector gathers posted completion events and can run them.
type collector struct {
	mu     sync.Mutex
	kinds  []string
	labels []string
	cbs    []func()
}

func (c *collector) post(kind, label string, _ oracle.Ref, cb func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.kinds = append(c.kinds, kind)
	c.labels = append(c.labels, label)
	c.cbs = append(c.cbs, cb)
}

func (c *collector) runAll() {
	for {
		c.mu.Lock()
		if len(c.cbs) == 0 {
			c.mu.Unlock()
			return
		}
		cb := c.cbs[0]
		c.cbs = c.cbs[1:]
		c.mu.Unlock()
		cb()
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cbs)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPoolExecutesTasksAndDeliversResults(t *testing.T) {
	c := &collector{}
	p := New(Config{Size: 2, Post: c.post})
	defer p.Close()

	var got atomic.Int64
	const n = 50
	for i := 0; i < n; i++ {
		i := i
		p.Submit(&Task{
			Name: fmt.Sprintf("t%d", i),
			Fn:   func() (any, error) { return i * 2, nil },
			Done: func(res any, err error) { got.Add(int64(res.(int))) },
		})
	}
	waitFor(t, func() bool { return p.Executed() == n && p.QueueLen() == 0 })
	// Give the last completion time to post, then run done callbacks.
	waitFor(t, func() bool { c.runAll(); return got.Load() == n*(n-1) })
}

func TestMultiplexedDoneQueueBatches(t *testing.T) {
	c := &collector{}
	block := make(chan struct{})
	p := New(Config{Size: 1, Demux: false, Post: c.post})
	defer p.Close()

	var done atomic.Int64
	// First task blocks the loop-side processing; meanwhile several tasks
	// complete and accumulate in the done queue.
	for i := 0; i < 5; i++ {
		p.Submit(&Task{
			Name: "t",
			Fn:   func() (any, error) { return nil, nil },
			Done: func(any, error) { done.Add(1) },
		})
	}
	_ = block
	waitFor(t, func() bool { return p.Executed() == 5 })
	// All five completed; the multiplexed queue should have posted a small
	// number of wakeup events (>=1), not necessarily 5.
	waitFor(t, func() bool { c.runAll(); return done.Load() == 5 })
	c.mu.Lock()
	posted := len(c.kinds)
	c.mu.Unlock()
	if posted >= 5 {
		t.Logf("note: %d wakeups for 5 tasks (allowed, but expected batching)", posted)
	}
	if posted < 1 {
		t.Fatal("no wakeup posted")
	}
}

func TestDemuxedDoneQueuePostsPerTask(t *testing.T) {
	c := &collector{}
	p := New(Config{Size: 1, Demux: true, Post: c.post})
	defer p.Close()

	const n = 7
	var done atomic.Int64
	for i := 0; i < n; i++ {
		p.Submit(&Task{
			Name: fmt.Sprintf("t%d", i),
			Fn:   func() (any, error) { return nil, nil },
			Done: func(any, error) { done.Add(1) },
		})
	}
	waitFor(t, func() bool { return c.count() == n })
	c.mu.Lock()
	if len(c.kinds) != n {
		t.Fatalf("posted %d events, want %d", len(c.kinds), n)
	}
	for _, k := range c.kinds {
		if k != "work-done" {
			t.Fatalf("kind = %q", k)
		}
	}
	c.mu.Unlock()
	c.runAll()
	if done.Load() != n {
		t.Fatalf("done = %d, want %d", done.Load(), n)
	}
}

// randomPicker picks the last task in the window, to prove the window is
// honoured.
type lastPicker struct{ dof int }

func (p lastPicker) PickTask(n int) int { return n - 1 }
func (p lastPicker) WaitPolicy() (int, time.Duration, time.Duration) {
	return p.dof, 5 * time.Millisecond, 0
}

func TestPickerControlsTaskOrder(t *testing.T) {
	c := &collector{}
	p := New(Config{Size: 1, Demux: true, Picker: lastPicker{dof: -1}, Post: c.post})
	defer p.Close()

	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	// Stall the single worker with a first task so the rest queue up. The
	// worker must have taken it before they arrive: its lookahead would
	// otherwise see all five and pick the last one first.
	p.Submit(&Task{Name: "gate", Fn: func() (any, error) { <-gate; return nil, nil }})
	waitFor(t, func() bool { return p.Executed() == 1 })
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("t%d", i)
		p.Submit(&Task{Name: name, Fn: func() (any, error) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil, nil
		}})
	}
	waitFor(t, func() bool { return p.QueueLen() == 4 })
	close(gate)
	// Executed counts tasks taken, so wait for the last one to have run.
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 4
	})
	mu.Lock()
	defer mu.Unlock()
	// lastPicker with unlimited DoF always takes the newest task: LIFO.
	want := []string{"t3", "t2", "t1", "t0"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunLockSerializesTasks(t *testing.T) {
	c := &collector{}
	var lock sync.Mutex
	p := New(Config{Size: 4, RunLock: &lock, Demux: true, Post: c.post})
	defer p.Close()

	var inside atomic.Int32
	var maxInside atomic.Int32
	const n = 20
	for i := 0; i < n; i++ {
		p.Submit(&Task{Name: "t", Fn: func() (any, error) {
			v := inside.Add(1)
			if v > maxInside.Load() {
				maxInside.Store(v)
			}
			time.Sleep(time.Millisecond)
			inside.Add(-1)
			return nil, nil
		}})
	}
	waitFor(t, func() bool { return p.Executed() == n })
	if maxInside.Load() != 1 {
		t.Fatalf("max concurrent tasks = %d, want 1 under RunLock", maxInside.Load())
	}
}

func TestCloseDrainsQueue(t *testing.T) {
	c := &collector{}
	p := New(Config{Size: 2, Demux: true, Post: c.post})
	const n = 30
	for i := 0; i < n; i++ {
		p.Submit(&Task{Name: "t", Fn: func() (any, error) { return nil, nil }})
	}
	p.Close()
	if p.Executed() != n {
		t.Fatalf("executed %d/%d before Close returned", p.Executed(), n)
	}
}

func TestSubmitAfterCloseBuffersUntilRestart(t *testing.T) {
	c := &collector{}
	p := New(Config{Size: 1, Demux: true, Post: c.post})
	p.Close()
	ran := false
	p.Submit(&Task{Name: "t", Fn: func() (any, error) { ran = true; return nil, nil }})
	time.Sleep(5 * time.Millisecond)
	if ran {
		t.Fatal("task ran on a closed pool")
	}
	p.Restart()
	p.Restart() // idempotent on a running pool
	waitFor(t, func() bool { return p.Executed() == 1 })
	p.Close()
	if !ran {
		t.Fatal("buffered task never ran after Restart")
	}
}

func TestMissingPostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New without Post did not panic")
		}
	}()
	New(Config{Size: 1})
}

func TestRecordHookCalledPerTask(t *testing.T) {
	c := &collector{}
	var recorded atomic.Int64
	p := New(Config{Size: 1, Post: c.post, Record: func(kind, label string) {
		if kind == "work" {
			recorded.Add(1)
		}
	}})
	defer p.Close()
	for i := 0; i < 10; i++ {
		p.Submit(&Task{Name: "t", Fn: func() (any, error) { return nil, nil }})
	}
	waitFor(t, func() bool { return recorded.Load() == 10 })
}

func TestWaitPolicyDoesNotLoseTasks(t *testing.T) {
	// Aggressive waiting policy with multiple workers racing for the queue:
	// every task must still execute exactly once.
	c := &collector{}
	p := New(Config{
		Size:   3,
		Demux:  true,
		Picker: lastPicker{dof: 4},
		Post:   c.post,
	})
	defer p.Close()
	var ran atomic.Int64
	const n = 100
	for i := 0; i < n; i++ {
		p.Submit(&Task{Name: "t", Fn: func() (any, error) { ran.Add(1); return nil, nil }})
	}
	waitFor(t, func() bool { return ran.Load() == n })
	if p.Executed() != n {
		t.Fatalf("Executed = %d, want %d", p.Executed(), n)
	}
}

// TestSubmitWakesOneIdleWorker: under a virtual clock each submit takes
// exactly one worker off the idle FIFO, first parked first, so repeated
// submits never give one worker more than one turn; the tasks then run in
// wake order, and Close drains the rest.
func TestSubmitWakesOneIdleWorker(t *testing.T) {
	v := vclock.NewVirtual()
	c := &collector{}
	var ran []string
	p := New(Config{Size: 3, Clock: v, Demux: true, Post: c.post, Record: func(_, name string) { ran = append(ran, name) }})
	var g vclock.Group
	var submitter vclock.Proc
	submitter.Init(v, 0, func() vclock.Wait {
		if len(p.idle) != 3 {
			t.Fatalf("%d idle workers after their first steps, want 3", len(p.idle))
		}
		first := p.idle[0]
		p.Submit(&Task{Name: "a", Fn: func() (any, error) { return nil, nil }})
		p.Submit(&Task{Name: "b", Fn: func() (any, error) { return nil, nil }})
		if len(p.idle) != 1 || p.idle[0] == first {
			t.Fatalf("two submits left %d idle workers, want the third one only", len(p.idle))
		}
		return vclock.Exit()
	})
	submitter.Spawn(&g)
	vclock.Join(v, &g)
	p.Close()
	if want := []string{"a", "b"}; fmt.Sprint(ran) != fmt.Sprint(want) {
		t.Fatalf("tasks ran %v, want %v", ran, want)
	}
	if len(c.labels) != 2 {
		t.Fatalf("%d completions posted, want 2", len(c.labels))
	}
}
