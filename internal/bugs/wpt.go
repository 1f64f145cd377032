package bugs

import (
	"fmt"
	"time"

	"nodefz/internal/simfs"
)

// wptApp models webpack-tapable bug #243 (Table 2, row 7): an atomicity
// violation between two callback chains ("X-X": any asynchronous step) on a
// shared counter. The plugin runner tracks how many asynchronous plugins
// are still outstanding in an instance field; when a second run starts
// while the first is in flight, it resets the field, the first run's
// completions drive it negative, and the completion callback fires the
// wrong number of times — an error is thrown.
//
// The paper's fix gives each run (callback chain) its own counter.
func wptApp() *App {
	return &App{
		Abbr: "WPT", Name: "webpack-tapable", Issue: "243",
		Type: "Module", LoC: "0.4K", DlMo: "3.9M",
		Desc:         "Facilitates WebPack plugin use",
		RaceType:     "AV",
		RacingEvents: "X-X",
		RaceOn:       "Variable",
		Impact:       "Throws error (possible crash).",
		FixStrategy:  "Counter per request (callback chain).",
		InFig6:       false, // §5.1.1: reproduce scenario was CoffeeScript
		Run:          func(cfg RunConfig) Outcome { return wptRun(cfg, false) },
		RunFixed:     func(cfg RunConfig) Outcome { return wptRun(cfg, true) },
	}
}

// wptTapable is the plugin runner; pending is the shared field of the bug.
type wptTapable struct {
	pending int
}

// applyPluginsParallel launches every plugin and invokes final once all
// complete. The buggy variant keeps the outstanding count in the shared
// t.pending; the fixed variant closes over a run-local counter.
func (t *wptTapable) applyPluginsParallel(fixed bool, plugins []func(done func()), final func()) (corrupt func() bool) {
	if fixed {
		remaining := len(plugins)
		for _, p := range plugins {
			p(func() {
				remaining--
				if remaining == 0 {
					final()
				}
			})
		}
		return func() bool { return false }
	}
	t.pending = len(plugins) // BUG: resets any in-flight run's count
	for _, p := range plugins {
		p(func() {
			t.pending--
			if t.pending == 0 {
				final()
			}
		})
	}
	return func() bool { return t.pending < 0 }
}

func wptRun(cfg RunConfig, fixed bool) Outcome {
	l := cfg.NewLoop()
	Watchdog(l, 3*time.Second)

	var out Outcome
	fs := simfs.New()
	fsa := simfs.Bind(l, fs, FSLatency, cfg.Seed)
	tap := &wptTapable{}

	// A plugin is an application-dependent asynchronous step ("X"): here,
	// a file write followed by a loop turn.
	mkPlugins := func(run string, n int) []func(done func()) {
		plugins := make([]func(done func()), n)
		for i := 0; i < n; i++ {
			path := fmt.Sprintf("/out-%s-%d", run, i)
			plugins[i] = func(done func()) {
				fsa.WriteFile(path, []byte(run), func(error) {
					l.SetImmediate(done)
				})
			}
		}
		return plugins
	}

	finals := map[string]int{}
	var corrupt1, corrupt2 func() bool
	corrupt2 = func() bool { return false }

	corrupt1 = tap.applyPluginsParallel(fixed, mkPlugins("one", 3), func() { finals["one"]++ })
	l.SetTimeout(12*time.Millisecond, func() {
		corrupt2 = tap.applyPluginsParallel(fixed, mkPlugins("two", 3), func() { finals["two"]++ })
	})

	WaitUntil(l, 20*time.Millisecond, 8*time.Millisecond, 10,
		func() bool { return finals["one"] >= 1 && finals["two"] >= 1 },
		func(bool) {})

	AddTimerNoise(l, 1500*time.Microsecond, 50*time.Millisecond)
	cfg.AddFSNoise(l, cfg.Seed+7, 2*time.Millisecond, 30*time.Millisecond)
	if err := l.Run(); err != nil {
		return Outcome{Note: "run: " + err.Error()}
	}

	switch {
	case corrupt1() || corrupt2():
		out.Manifested = true
		out.Note = "shared pending counter driven negative by interleaved chains"
	case finals["one"] > 1 || finals["two"] > 1:
		out.Manifested = true
		out.Note = fmt.Sprintf("completion callback fired repeatedly (one=%d two=%d)",
			finals["one"], finals["two"])
	case finals["one"] == 0 || finals["two"] == 0:
		out.Manifested = true
		out.Note = fmt.Sprintf("completion callback never fired (one=%d two=%d)",
			finals["one"], finals["two"])
	}
	return out
}
