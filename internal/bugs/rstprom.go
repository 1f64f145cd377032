package bugs

import (
	"fmt"
	"time"

	"nodefz/internal/asyncutil"
	"nodefz/internal/oracle"
	"nodefz/internal/simfs"
)

// rstPromApp is the promise-combinator port of restify #847's commutative
// ordering violation (§3.4.2 notes "Bluebird's Promise.all API would also
// have served" as the fix). A server warms two caches before declaring
// itself ready: cache A is one file read, cache B chases an index file and
// then reads the target, so B habitually finishes second. The buggy
// variant wires readiness with Promise.race — ready when the *first* warm
// completes, the promise-layer spelling of the isLast-bind anti-pattern —
// so a request that arrives between the two completions is served from a
// half-warm cache. The fix is the one-token change the combinator layer
// exists for: Promise.all.
func rstPromApp() *App {
	return &App{
		Abbr: "RST-prom", Name: "restify", Issue: "847 (promise port)",
		Type: "Module", LoC: "5.5K", DlMo: "232K",
		Desc:         "Tool for RESTful APIs",
		RaceType:     "COV",
		RacingEvents: "FS-X",
		RaceOn:       "Cache",
		Impact:       "Incomplete response served from a half-warm cache.",
		FixStrategy:  "Promise.all where Promise.race was used.",
		Novel:        true,
		InFig6:       true,
		Run:          func(cfg RunConfig) Outcome { return rstPromRun(cfg, false) },
		RunFixed:     func(cfg RunConfig) Outcome { return rstPromRun(cfg, true) },
	}
}

func rstPromRun(cfg RunConfig, fixed bool) Outcome {
	l := cfg.NewLoop()
	Watchdog(l, 3*time.Second)

	var out Outcome
	fs := simfs.New()
	const chunk = 64
	mkBody := func(c byte) []byte {
		b := make([]byte, chunk)
		for i := range b {
			b[i] = c
		}
		return b
	}
	if err := fs.Mkdir("/cache"); err != nil {
		return Outcome{Note: "setup: " + err.Error()}
	}
	if err := fs.WriteFile("/cache/a", mkBody('A')); err != nil {
		return Outcome{Note: "setup: " + err.Error()}
	}
	if err := fs.WriteFile("/cache/idx", []byte("/cache/b")); err != nil {
		return Outcome{Note: "setup: " + err.Error()}
	}
	if err := fs.WriteFile("/cache/b", mkBody('B')); err != nil {
		return Outcome{Note: "setup: " + err.Error()}
	}
	fsa := simfs.Bind(l, fs, FSLatency, cfg.Seed)

	var cacheA, cacheB []byte
	warm := false

	// warmA: one read. warmB: chase the index, then read the target — two
	// pool trips, so B habitually completes after A (and the fuzzer's
	// single-worker task picking can hold it back much longer).
	warmA := asyncutil.NewPromise(l, func(resolve func(any), reject func(error)) {
		fsa.ReadFile("/cache/a", func(data []byte, err error) {
			if err != nil {
				reject(err)
				return
			}
			cfg.Oracle.Access("rstp:cacheA", oracle.Write)
			cacheA = data
			resolve(nil)
		})
	})
	warmB := asyncutil.NewPromise(l, func(resolve func(any), reject func(error)) {
		fsa.ReadFile("/cache/idx", func(idx []byte, err error) {
			if err != nil {
				reject(err)
				return
			}
			fsa.ReadFile(string(idx), func(data []byte, err error) {
				if err != nil {
					reject(err)
					return
				}
				cfg.Oracle.Access("rstp:cacheB", oracle.Write)
				cacheB = data
				resolve(nil)
			})
		})
	})

	// The readiness gate. The combinator's waiters chain through the
	// oracle's release-acquire Sync, so under Promise.all the warm flag's
	// writer is ordered after *both* cache writes; under Promise.race it is
	// ordered after the winner only, and the loser's write races with every
	// reader admitted by the flag.
	var ready *asyncutil.Promise
	if fixed {
		ready = asyncutil.PromiseAll(l, []*asyncutil.Promise{warmA, warmB})
	} else {
		// BUG: ready when the first warm completes.
		ready = asyncutil.PromiseRace(l, []*asyncutil.Promise{warmA, warmB})
	}
	ready.Then(func(any) (any, error) {
		cfg.Oracle.Sync("rstp:warm")
		warm = true
		return nil, nil
	}).Catch(func(err error) (any, error) {
		if out.Note == "" {
			out.Note = "setup: " + err.Error()
		}
		return nil, nil
	})

	// A request arrives while warming may still be in flight; it serves as
	// soon as it observes readiness. The retry timers are part of the
	// application (not a detector): their reads are real racing accesses.
	served := false
	var servedA, servedB int
	attempts := 0
	var poll func()
	poll = func() {
		if warm {
			cfg.Oracle.Sync("rstp:warm")
			cfg.Oracle.Access("rstp:cacheA", oracle.Read)
			cfg.Oracle.Access("rstp:cacheB", oracle.Read)
			served = true
			servedA, servedB = len(cacheA), len(cacheB)
			return
		}
		attempts++
		if attempts < 25 {
			l.SetTimeoutNamed("request", 2*time.Millisecond, poll)
		}
	}
	l.SetTimeoutNamed("request", 5*time.Millisecond, poll)

	cfg.AddFSNoise(l, cfg.Seed, 1200*time.Microsecond, 20*time.Millisecond)
	AddTimerNoise(l, 1500*time.Microsecond, 30*time.Millisecond)
	if err := l.Run(); err != nil {
		return Outcome{Note: "run: " + err.Error()}
	}
	if out.Note != "" {
		return out
	}
	if served && (servedA < chunk || servedB < chunk) {
		out.Manifested = true
		out.Note = fmt.Sprintf("served from a half-warm cache: a=%d/%d b=%d/%d bytes",
			servedA, chunk, servedB, chunk)
	}
	return out
}
