// Package conformance is the runtime's documented-semantics test suite,
// parameterized by scheduler. It plays the role of the Node.js test suite
// in §4.4 ("Node.fz Fidelity"): a legal fuzzer may reorder what the
// documentation leaves unordered, but every guarantee checked here must
// hold under any scheduler — vanilla, no-fuzz, standard fuzzing, or guided.
//
// The harness's fidelity experiment runs the whole suite under the fuzzing
// scheduler across many seeds; the package's own tests run it under every
// mode.
package conformance

import (
	"bytes"
	"fmt"
	"time"

	"nodefz/internal/asyncutil"
	"nodefz/internal/emitter"
	"nodefz/internal/eventloop"
	"nodefz/internal/kvstore"
	"nodefz/internal/simfs"
	"nodefz/internal/simnet"
)

// Scenario is one conformance check. Run builds a fresh loop from the
// factory, drives a workload, and returns an error if a documented
// guarantee was violated.
type Scenario struct {
	Name string
	Run  func(newLoop func() *eventloop.Loop, seed int64) error
}

// Suite returns all scenarios.
func Suite() []Scenario {
	base := []Scenario{
		{"timer-never-early", timerNeverEarly},
		{"timer-deadline-registration-order", timerOrder},
		{"interval-repeats", intervalRepeats},
		{"tick-before-events", tickPriority},
		{"immediate-after-poll", immediateRuns},
		{"work-done-after-task", workDone},
		{"work-all-complete", workAllComplete},
		{"emitter-listener-order", emitterOrder},
		{"net-per-connection-fifo", netFIFO},
		{"net-close-after-data", netCloseAfterData},
		{"kv-same-connection-fifo", kvFIFO},
		{"fs-roundtrip", fsRoundtrip},
		{"parallel-collects-all", parallelCollects},
		{"waterfall-threads-results", waterfallThreads},
	}
	base = append(base, extraSuite()...)
	base = append(base, microtaskSuite()...)
	return append(base, promiseSuite()...)
}

// RunAll executes every scenario once and returns the failures.
func RunAll(newLoop func() *eventloop.Loop, seed int64) []error {
	var errs []error
	for _, sc := range Suite() {
		if err := sc.Run(newLoop, seed); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", sc.Name, err))
		}
	}
	return errs
}

func runLoop(l *eventloop.Loop) error {
	done := make(chan error, 1)
	go func() { done <- l.Run() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		l.Stop()
		<-done
		return fmt.Errorf("loop did not terminate")
	}
}

func timerNeverEarly(newLoop func() *eventloop.Loop, seed int64) error {
	l := newLoop()
	const d = 10 * time.Millisecond
	clk := l.Clock()
	start := clk.Now()
	var fired time.Time
	l.SetTimeout(d, func() { fired = clk.Now() })
	if err := runLoop(l); err != nil {
		return err
	}
	if got := fired.Sub(start); got < d {
		return fmt.Errorf("timer fired after %v, before its %v deadline", got, d)
	}
	return nil
}

func timerOrder(newLoop func() *eventloop.Loop, seed int64) error {
	l := newLoop()
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		l.SetTimeout(5*time.Millisecond, func() { order = append(order, i) })
	}
	if err := runLoop(l); err != nil {
		return err
	}
	if len(order) != 6 {
		return fmt.Errorf("ran %d/6 timers", len(order))
	}
	for i, v := range order {
		if v != i {
			return fmt.Errorf("equal-deadline timers out of registration order: %v", order)
		}
	}
	return nil
}

func intervalRepeats(newLoop func() *eventloop.Loop, seed int64) error {
	l := newLoop()
	n := 0
	var tm *eventloop.Timer
	tm = l.SetInterval(2*time.Millisecond, func() {
		n++
		if n == 3 {
			tm.Stop()
		}
	})
	if err := runLoop(l); err != nil {
		return err
	}
	if n != 3 {
		return fmt.Errorf("interval ran %d times, want 3", n)
	}
	return nil
}

func tickPriority(newLoop func() *eventloop.Loop, seed int64) error {
	l := newLoop()
	var order []string
	l.SetTimeout(time.Millisecond, func() {
		l.SetImmediate(func() { order = append(order, "immediate") })
		l.NextTick(func() { order = append(order, "tick") })
		order = append(order, "timer")
	})
	if err := runLoop(l); err != nil {
		return err
	}
	want := []string{"timer", "tick", "immediate"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		return fmt.Errorf("order = %v, want %v", order, want)
	}
	return nil
}

func immediateRuns(newLoop func() *eventloop.Loop, seed int64) error {
	l := newLoop()
	n := 0
	l.SetImmediate(func() {
		n++
		l.SetImmediate(func() { n++ })
	})
	if err := runLoop(l); err != nil {
		return err
	}
	if n != 2 {
		return fmt.Errorf("immediates ran %d times, want 2", n)
	}
	return nil
}

func workDone(newLoop func() *eventloop.Loop, seed int64) error {
	l := newLoop()
	taskDone := false
	orderOK := true
	l.QueueWork("t", func() (any, error) {
		taskDone = true
		return 7, nil
	}, func(res any, err error) {
		if !taskDone {
			orderOK = false
		}
		if res != 7 || err != nil {
			orderOK = false
		}
	})
	if err := runLoop(l); err != nil {
		return err
	}
	if !orderOK {
		return fmt.Errorf("done callback ran before its task completed")
	}
	return nil
}

func workAllComplete(newLoop func() *eventloop.Loop, seed int64) error {
	l := newLoop()
	const n = 24
	done := 0
	for i := 0; i < n; i++ {
		l.QueueWork("t", func() (any, error) { return nil, nil }, func(any, error) { done++ })
	}
	if err := runLoop(l); err != nil {
		return err
	}
	if done != n {
		return fmt.Errorf("completed %d/%d tasks", done, n)
	}
	return nil
}

func emitterOrder(newLoop func() *eventloop.Loop, seed int64) error {
	l := newLoop()
	e := emitter.New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.On("ev", func(...any) { order = append(order, i) })
	}
	bad := false
	l.SetTimeout(time.Millisecond, func() {
		e.Emit("ev")
		for i, v := range order {
			if v != i {
				bad = true
			}
		}
	})
	if err := runLoop(l); err != nil {
		return err
	}
	if bad || len(order) != 5 {
		return fmt.Errorf("listener order violated: %v", order)
	}
	return nil
}

func netFIFO(newLoop func() *eventloop.Loop, seed int64) error {
	l := newLoop()
	net := simnet.New(simnet.Config{Seed: seed, MinLatency: time.Millisecond, MaxLatency: 2 * time.Millisecond, Clock: l.Clock()})
	defer net.Close()
	const n = 20
	var got []int
	ln, err := net.Listen(l, "srv", func(c *simnet.Conn) {
		c.OnData(func(msg []byte) {
			var v int
			fmt.Sscanf(string(msg), "%d", &v)
			got = append(got, v)
		})
	})
	if err != nil {
		return err
	}
	net.Dial(l, "srv", func(c *simnet.Conn, err error) {
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			_ = c.Send([]byte(fmt.Sprintf("%d", i)))
		}
		c.Close()
		ln.Close(nil)
	})
	if err := runLoop(l); err != nil {
		return err
	}
	if len(got) != n {
		return fmt.Errorf("received %d/%d messages", len(got), n)
	}
	for i, v := range got {
		if v != i {
			return fmt.Errorf("per-connection order violated at %d: %v", i, got[:i+1])
		}
	}
	return nil
}

func netCloseAfterData(newLoop func() *eventloop.Loop, seed int64) error {
	l := newLoop()
	net := simnet.New(simnet.Config{Seed: seed, MinLatency: time.Millisecond, MaxLatency: 2 * time.Millisecond, Clock: l.Clock()})
	defer net.Close()
	var events []string
	ln, err := net.Listen(l, "srv", func(c *simnet.Conn) {
		c.OnData(func(msg []byte) { events = append(events, "data") })
		c.OnClose(func() { events = append(events, "close") })
	})
	if err != nil {
		return err
	}
	net.Dial(l, "srv", func(c *simnet.Conn, err error) {
		if err != nil {
			return
		}
		_ = c.Send([]byte("x"))
		c.Close()
		ln.Close(nil)
	})
	if err := runLoop(l); err != nil {
		return err
	}
	if len(events) != 2 || events[0] != "data" || events[1] != "close" {
		return fmt.Errorf("events = %v, want [data close]", events)
	}
	return nil
}

func kvFIFO(newLoop func() *eventloop.Loop, seed int64) error {
	l := newLoop()
	net := simnet.New(simnet.Config{Seed: seed, MinLatency: time.Millisecond, MaxLatency: 2 * time.Millisecond, Clock: l.Clock()})
	defer net.Close()
	srv, err := kvstore.NewServer(l, net, "db")
	if err != nil {
		return err
	}
	var final string
	kvstore.NewClient(l, net, "db", 1, func(c *kvstore.Client, err error) {
		if err != nil {
			return
		}
		c.Set("k", "first", nil)
		c.Set("k", "second", nil)
		c.Get("k", func(val string, ok bool, err error) {
			final = val
			c.Close()
			srv.Close()
		})
	})
	if err := runLoop(l); err != nil {
		return err
	}
	if final != "second" {
		return fmt.Errorf("single-connection commands reordered: final=%q", final)
	}
	return nil
}

func fsRoundtrip(newLoop func() *eventloop.Loop, seed int64) error {
	l := newLoop()
	fs := simfs.New()
	fsa := simfs.Bind(l, fs, time.Millisecond, seed)
	payload := []byte("conformance payload")
	var got []byte
	var opErr error
	fsa.WriteFile("/f", payload, func(err error) {
		if err != nil {
			opErr = err
			return
		}
		fsa.ReadFile("/f", func(data []byte, err error) {
			got, opErr = data, err
		})
	})
	if err := runLoop(l); err != nil {
		return err
	}
	if opErr != nil {
		return opErr
	}
	if !bytes.Equal(got, payload) {
		return fmt.Errorf("read %q, wrote %q", got, payload)
	}
	return nil
}

func parallelCollects(newLoop func() *eventloop.Loop, seed int64) error {
	l := newLoop()
	fs := simfs.New()
	fsa := simfs.Bind(l, fs, time.Millisecond, seed)
	var results []any
	var tasks []asyncutil.Task
	for i := 0; i < 5; i++ {
		i := i
		tasks = append(tasks, func(done asyncutil.Callback) {
			fsa.WriteFile(fmt.Sprintf("/p%d", i), []byte{byte(i)}, func(err error) {
				done(err, i)
			})
		})
	}
	asyncutil.Parallel(tasks, func(err error, res []any) {
		if err == nil {
			results = res
		}
	})
	if err := runLoop(l); err != nil {
		return err
	}
	if len(results) != 5 {
		return fmt.Errorf("parallel collected %d/5 results", len(results))
	}
	for i, r := range results {
		if r != i {
			return fmt.Errorf("results out of task order: %v", results)
		}
	}
	return nil
}

func waterfallThreads(newLoop func() *eventloop.Loop, seed int64) error {
	l := newLoop()
	var got any
	l.SetTimeout(time.Millisecond, func() {
		asyncutil.Waterfall([]asyncutil.Step{
			func(prev any, next asyncutil.Callback) {
				l.SetImmediate(func() { next(nil, 2) })
			},
			func(prev any, next asyncutil.Callback) {
				l.NextTick(func() { next(nil, prev.(int)*21) })
			},
		}, func(err error, result any) { got = result })
	})
	if err := runLoop(l); err != nil {
		return err
	}
	if got != 42 {
		return fmt.Errorf("waterfall result = %v, want 42", got)
	}
	return nil
}
