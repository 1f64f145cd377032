package conformance

import (
	"fmt"
	"time"

	"nodefz/internal/eventloop"
	"nodefz/internal/sigsim"
	"nodefz/internal/simfs"
	"nodefz/internal/streams"
)

// extraSuite covers the extended substrates; appended to Suite.
func extraSuite() []Scenario {
	return []Scenario{
		{"stream-pipe-order", streamPipeOrder},
		{"signal-coalescing", signalCoalescing},
		{"fs-watch-order", fsWatchOrder},
	}
}

func streamPipeOrder(newLoop func() *eventloop.Loop, seed int64) error {
	l := newLoop()
	fs := simfs.New()
	if err := fs.Create("/out"); err != nil {
		return err
	}
	fsa := simfs.Bind(l, fs, 300*time.Microsecond, seed)
	r := streams.NewReadable(l, 16)
	w := streams.NewWritable(l, 16, func(chunk []byte, done func(error)) {
		fsa.Append("/out", chunk, done)
	})
	var pipeErr error
	streams.Pipe(r, w, func(err error) { pipeErr = err })
	// Feed the source from loop timers, one chunk every 400µs, so the
	// scenario runs on a virtual clock as well as the wall clock.
	i := 0
	var feed func()
	feed = func() {
		if i == 8 {
			r.End()
			return
		}
		r.Push([]byte(fmt.Sprintf("|%d", i)))
		i++
		l.SetTimeout(400*time.Microsecond, feed)
	}
	feed()
	if err := runLoop(l); err != nil {
		return err
	}
	if pipeErr != nil {
		return pipeErr
	}
	got, err := fs.ReadFile("/out")
	if err != nil {
		return err
	}
	want := "|0|1|2|3|4|5|6|7"
	if string(got) != want {
		return fmt.Errorf("piped %q, want %q", got, want)
	}
	return nil
}

func signalCoalescing(newLoop func() *eventloop.Loop, seed int64) error {
	l := newLoop()
	p := sigsim.NewProcess(l)
	handled := 0
	p.On(sigsim.SIGHUP, func(sigsim.Signal) { handled++ })
	p.On(sigsim.SIGTERM, func(sigsim.Signal) { p.Close(nil) })
	l.SetTimeout(time.Millisecond, func() {
		p.Kill(sigsim.SIGHUP)
		p.Kill(sigsim.SIGHUP) // pending: must coalesce
		l.SetTimeout(5*time.Millisecond, func() { p.Kill(sigsim.SIGTERM) })
	})
	if err := runLoop(l); err != nil {
		return err
	}
	if handled != 1 {
		return fmt.Errorf("pending SIGHUP delivered %d times, want 1", handled)
	}
	return nil
}

func fsWatchOrder(newLoop func() *eventloop.Loop, seed int64) error {
	l := newLoop()
	fs := simfs.New()
	var ops []simfs.WatchOp
	var w *simfs.Watcher
	w = fs.Watch(l, "/", func(ev simfs.WatchEvent) {
		ops = append(ops, ev.Op)
		if ev.Op == simfs.WatchRemove {
			w.Close()
		}
	})
	l.SetTimeout(time.Millisecond, func() {
		if err := fs.Mkdir("/d"); err != nil {
			return
		}
		if err := fs.Create("/d/f"); err != nil {
			return
		}
		if err := fs.Unlink("/d/f"); err != nil {
			return
		}
	})
	if err := runLoop(l); err != nil {
		return err
	}
	want := []simfs.WatchOp{simfs.WatchMkdir, simfs.WatchCreate, simfs.WatchRemove}
	if len(ops) != len(want) {
		return fmt.Errorf("ops = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			return fmt.Errorf("watch events reordered: %v", ops)
		}
	}
	return nil
}
