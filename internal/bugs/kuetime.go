package bugs

import (
	"fmt"
	"time"

	"nodefz/internal/simnet"
	"nodefz/internal/vclock"
)

// kueTimeApp models the §5.2.3 bug from the 2014 version of the kue test
// suite (commit 03736bd7): a "race against time" — neither an atomicity nor
// an ordering violation. The test assumed a timer would NOT be executed
// with high precision: with the loop saturated by callback work, timers are
// normally identified late, and the test crashes when one goes off too soon
// after its scheduled deadline.
//
// The paper used this bug to demonstrate guided fuzzing: a parameterization
// that defers events aggressively but never timers makes the loop spend its
// time spinning, so ready timers execute promptly — quadrupling the
// manifestation rate (3/50 -> 13/50) — see core.GuidedTimerParams.
//
// There is no racy shared state to patch; the "fixed" variant is the
// corrected assertion (no precision assumption).
func kueTimeApp() *App {
	return &App{
		Abbr: "KUE-2014", Name: "kue (2014 suite)", Issue: "03736bd7",
		Type: "Module", LoC: "6.6K", DlMo: "69K",
		Desc:         "Priority job queue (2014 test suite)",
		RaceType:     "Time",
		RacingEvents: "Timer-load",
		RaceOn:       "Wall clock",
		Impact:       "Test crashes when a timer fires too precisely.",
		FixStrategy:  "Remove the timing assumption.",
		Novel:        true,
		InFig6:       false, // evaluated separately in the guided-fuzzing experiment
		Run:          func(cfg RunConfig) Outcome { return kueTimeRun(cfg, false) },
		RunFixed:     func(cfg RunConfig) Outcome { return kueTimeRun(cfg, true) },
	}
}

// kueTimeBusy stands in for the JSON parsing and assertion work each test
// callback performs: a real spin in wall mode, a simulated-time Charge under
// a virtual clock. Charge, not Sleep: the callback runs under the loop's run
// lock, busy CPU must not let any other participant interleave, and spinning
// on a virtual Now would never terminate.
func kueTimeBusy(clk vclock.Clock, d time.Duration) {
	if _, wall := clk.(vclock.Wall); wall {
		end := time.Now().Add(d)
		for time.Now().Before(end) {
		}
		return
	}
	clk.Charge(d)
}

func kueTimeRun(cfg RunConfig, fixed bool) Outcome {
	l := cfg.NewLoop()
	clk := l.Clock()
	net := cfg.NewNet()
	defer net.Close()
	Watchdog(l, 5*time.Second)

	var out Outcome
	const (
		deadline  = 25 * time.Millisecond
		slack     = 1500 * time.Microsecond // the suite's implicit assumption
		chains    = 30
		workEach  = 400 * time.Microsecond
		trafficTo = 60 * time.Millisecond
	)

	ln, err := net.Listen(l, "redis", func(c *simnet.Conn) {
		c.OnData(func(msg []byte) { _ = c.Send(msg) })
	})
	if err != nil {
		return Outcome{Note: "setup: " + err.Error()}
	}

	// The suite's background load: many concurrent job-status round trips,
	// each reply doing a slice of callback work.
	stop := vclock.AddNanos(clk.Nanos(), trafficTo)
	live := 0
	for i := 0; i < chains; i++ {
		i := i
		net.Dial(l, "redis", func(conn *simnet.Conn, err error) {
			if err != nil {
				return
			}
			live++
			conn.OnData(func([]byte) {
				kueTimeBusy(clk, workEach)
				if clk.Nanos() < stop {
					_ = conn.Send([]byte(fmt.Sprintf("job-%d", i)))
					return
				}
				conn.Close()
				live--
				if live == 0 {
					ln.Close(nil)
				}
			})
			_ = conn.Send([]byte(fmt.Sprintf("job-%d", i)))
		})
	}

	// The offending assertion: registered for `deadline`, it crashes if it
	// runs within `slack` of the deadline — the suite relied on the
	// saturated loop making timers imprecise.
	start := clk.Nanos()
	l.SetTimeoutNamed("precision-assert", deadline, func() {
		late := time.Duration(clk.Nanos()-start) - deadline
		if late < slack && !fixed {
			out.Manifested = true
			out.Note = fmt.Sprintf(
				"assert failed: timer fired %v after its deadline (suite assumed >= %v)",
				late.Round(time.Microsecond), slack)
		}
	})

	if err := l.Run(); err != nil {
		return Outcome{Note: "run: " + err.Error()}
	}
	return out
}
