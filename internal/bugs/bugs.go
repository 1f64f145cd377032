// Package bugs is the executable bug corpus: one miniature EDA application
// per concurrency bug from the paper's study (§3, Table 2), plus the novel
// bugs of §5.2 and the "race against time" of §5.2.3.
//
// Each App distils the racy kernel the paper documents — the same shared
// state, the same racing events, the same anti-pattern — onto this
// repository's substrates (simnet for network traffic, simfs for the file
// system, kvstore for the database). Every App has:
//
//   - Run: the buggy variant, returning whether the race manifested on this
//     execution, detected the way the paper's impact column describes
//     (crash via nil value, hung request, duplicated DB row, ...);
//   - RunFixed: the paper's patch applied, which must never manifest.
//
// Test cases follow §5.1.1: they are functional-style, with timer "noise"
// injected so the schedule fuzzer has realistic nondeterminism to amplify,
// and they stage operations with small gaps that vanilla scheduling honours
// but fuzzed schedules stretch across.
package bugs

import (
	"sync/atomic"
	"time"

	"nodefz/internal/eventloop"
	"nodefz/internal/metrics"
	"nodefz/internal/oracle"
	"nodefz/internal/sched"
	"nodefz/internal/simfs"
	"nodefz/internal/simnet"
	"nodefz/internal/vclock"
)

// RunConfig parameterizes one execution of a bug application.
type RunConfig struct {
	// Seed drives the substrate latency models (and, indirectly, vanilla
	// nondeterminism). The fuzzing scheduler carries its own seed.
	Seed int64
	// Scheduler runs the loop; nil means eventloop.VanillaScheduler.
	Scheduler eventloop.Scheduler
	// Recorder, when non-nil, captures the type schedule.
	Recorder eventloop.Recorder
	// Metrics, when non-nil, is the per-trial registry the loop, worker
	// pool, and scheduler activity are recorded into (see
	// internal/metrics); nil turns metrics off, and the loop and pool then
	// build no instruments. Metrics only observe: a trial runs the same
	// schedule with or without them.
	Metrics *metrics.Registry
	// Clock is the trial's time source: nil means wall time; a
	// vclock.Virtual clock runs every wait — timers, substrate latencies,
	// injected delays — in simulated time so the trial finishes at CPU
	// speed.
	Clock vclock.Clock
	// Oracle, when non-nil, is the trial's happens-before tracker: the
	// loop, pool, and network report callback causality into it, and the
	// corpus apps tag their racy shared state, so violations are detected
	// without the app's own assertion firing. Nil leaves every hook a
	// no-op.
	Oracle *oracle.Tracker
	// Arena, when non-nil, is the reusable trial world this run draws its
	// loop, network, and FS-noise binding from instead of building fresh
	// ones (see Arena). Set by Arena.Begin; single-shot paths leave it nil.
	Arena *Arena
}

// virtualTime is the process-wide default clock mode for single-shot
// trials, set by the -virtual-time flag of fzrun and fzbench. Individual
// trials can always override it by setting RunConfig.Clock explicitly;
// campaign trials always do.
var virtualTime atomic.Bool

// SetVirtualTime switches the process-wide default for new trials: when on,
// TrialClock hands every trial a fresh virtual clock, so waits elapse in
// simulated time and trials run at CPU speed.
func SetVirtualTime(on bool) { virtualTime.Store(on) }

// TrialClock returns the clock a new trial's RunConfig should carry: a fresh
// virtual clock when virtual time is enabled (each trial needs its own — a
// clock's run queue and deadlines are per trial), nil (wall time) otherwise.
func TrialClock() vclock.Clock {
	if virtualTime.Load() {
		return vclock.NewVirtual()
	}
	return nil
}

// NewLoop builds the event loop for a trial — or, when the trial runs in an
// arena, hands back the arena's next loop slot reset for this trial. Fresh
// or reused, the loop's recorder gets the trial clock here.
func (cfg RunConfig) NewLoop() *eventloop.Loop {
	if r, ok := cfg.Recorder.(*sched.Recorder); ok && r != nil && cfg.Clock != nil {
		// Stamp schedule entries with the trial clock: under virtual time a
		// wall timestamp is the one nondeterministic bit left in a trace.
		r.Now = cfg.Clock.Now
	}
	return cfg.Arena.acquireLoop(cfg)
}

// NewNodeLoop builds one cluster node's event loop: same clock, scheduler,
// recorder, and oracle as the trial's control loop — in an arena trial, the
// arena's next loop slot — but never metrics-instrumented (node loops share
// a trial; per-loop end-of-run gauges would clobber each other).
func (cfg RunConfig) NewNodeLoop() *eventloop.Loop {
	cfg.Metrics = nil
	return cfg.NewLoop()
}

// NewNet builds the trial's network with the trial seed.
//
// The latency scale (milliseconds, not microseconds) is deliberate: the
// harness must work on stock kernels whose sleep/timer granularity is
// about a millisecond, so every meaningful interval in the corpus sits
// well above that granularity.
func (cfg RunConfig) NewNet() *simnet.Network {
	conf := simnet.Config{
		Seed:       cfg.Seed,
		MinLatency: 1 * time.Millisecond,
		MaxLatency: 2500 * time.Microsecond,
		Clock:      cfg.Clock,
		Probe:      cfg.Oracle,
	}
	if cfg.Arena != nil {
		if n := cfg.Arena.acquireNet(conf); n != nil {
			return n
		}
	}
	return simnet.New(conf)
}

// FSLatency is the base service time for asynchronous filesystem
// operations in the corpus; see simfs.Bind's jitter.
const FSLatency = 1500 * time.Microsecond

// AddTimerNoise registers the heartbeat timers that §5.1.1's adapted test
// cases introduce ("we adapted the external test cases ... by introducing
// non-determinism (e.g. file system calls or timers)"). Under vanilla
// scheduling they are invisible; under the fuzzer each expiry is a chance
// for a timer deferral and its injected delay, stretching the schedule.
func AddTimerNoise(l *eventloop.Loop, every, until time.Duration) {
	deadline := vclock.AddNanos(l.Clock().Nanos(), until)
	var tick *eventloop.Timer
	tick = l.SetIntervalNamed("noise", every, func() {
		if l.Clock().Nanos() > deadline {
			tick.Stop()
		}
	})
}

// AddFSNoise registers the file-system noise §5.1.1's adapted test cases
// introduce on the trial's loop l: an interval timer issuing small stat
// calls against a private in-memory filesystem. Under vanilla scheduling
// the stats run on spare worker-pool capacity and are invisible; under the
// fuzzer — pool size 1, task-queue lookahead — they share the single
// worker's queue with the application's file-system operations, and the
// scheduler's random task picking (Table 3, worker DoF) can hold an
// application operation back behind them. In an arena trial whose l is the
// arena's loop slot 0, the filesystem and its binding are the arena's,
// reset and reseeded instead of rebuilt.
func (cfg RunConfig) AddFSNoise(l *eventloop.Loop, seed int64, every, until time.Duration) {
	var fsa *simfs.Async
	if cfg.Arena != nil {
		fsa = cfg.Arena.acquireNoise(l, 500*time.Microsecond, seed)
	}
	if fsa == nil {
		noiseFS := simfs.New()
		fsa = simfs.Bind(l, noiseFS, 500*time.Microsecond, seed)
	}
	if err := fsa.FS().Create("/noise"); err != nil {
		panic(err)
	}
	deadline := vclock.AddNanos(l.Clock().Nanos(), until)
	var tick *eventloop.Timer
	tick = l.SetIntervalNamed("fs-noise", every, func() {
		if l.Clock().Nanos() > deadline {
			tick.Stop()
			return
		}
		fsa.Stat("/noise", func(simfs.Info, error) {})
	})
}

// Watchdog force-stops the loop after d if a trial wedges (a hung request
// is a *detected outcome* for several bugs, not a reason to hang the
// harness). The timer is unref'd so it never keeps a healthy trial alive.
func Watchdog(l *eventloop.Loop, d time.Duration) {
	l.SetTimeoutNamed("watchdog", d, func() { l.Stop() }).Unref()
}

// WaitUntil polls cond on the loop: the first check runs after first, then
// every interval, at most rounds times; done receives whether cond became
// true. Bug detectors use it instead of a single deadline so that a fuzzed
// schedule's injected delays (which slow legitimate processing and timers
// alike) cannot misread a *late* outcome as a *missing* one: only an
// outcome that never arrives within the whole retry budget counts.
func WaitUntil(l *eventloop.Loop, first, interval time.Duration, rounds int, cond func() bool, done func(ok bool)) {
	attempt := 0
	var check func()
	check = func() {
		if cond() {
			done(true)
			return
		}
		attempt++
		if attempt >= rounds {
			done(false)
			return
		}
		l.SetTimeoutNamed("detector", interval, check)
	}
	l.SetTimeoutNamed("detector", first, check)
}

// Outcome reports one trial.
type Outcome struct {
	// Manifested is true when the concurrency bug's effect was observed.
	Manifested bool
	// Note describes what was observed, in the terms of Table 2's impact
	// column.
	Note string
}

// App is one corpus entry. The metadata columns mirror Tables 1 and 2.
type App struct {
	Abbr  string // table abbreviation, e.g. "SIO"
	Name  string // project name, e.g. "socket.io"
	Issue string // GitHub issue / PR / commit
	Type  string // "Application" or "Module"
	LoC   string // Table 1 source size
	DlMo  string // Table 1 downloads/month
	Desc  string // Table 1 description

	RaceType     string // "AV", "OV", "COV"
	RacingEvents string // Table 2 racing events column
	RaceOn       string // Table 2 race-on column
	Impact       string // Table 2 impact column
	FixStrategy  string // Table 2 fix column

	Novel  bool // one of the §5.2 novel bugs
	InFig6 bool // part of the paper's Figure 6 evaluation set

	// Run executes the buggy variant once.
	Run func(RunConfig) Outcome
	// RunFixed executes the variant with the paper's patch applied; nil
	// when the paper's fix is "unknown" (KUE novel).
	RunFixed func(RunConfig) Outcome
}

// registry holds the corpus in Table 2 order; see registry.go.
var registry []*App

// All returns the corpus in Table 2 order.
func All() []*App {
	out := make([]*App, len(registry))
	copy(out, registry)
	return out
}

// Fig6Set returns the apps evaluated in Figure 6 (§5.1.1 exclusions
// applied: EPL needs a browser, WPT is CoffeeScript, RST manifests readily
// even on vanilla Node, GHO is replaced by the standalone GHO').
func Fig6Set() []*App {
	var out []*App
	for _, a := range registry {
		if a.InFig6 {
			out = append(out, a)
		}
	}
	return out
}

// Studied returns the non-novel corpus (the 12 bugs of the §3 study).
func Studied() []*App {
	var out []*App
	for _, a := range registry {
		if !a.Novel {
			out = append(out, a)
		}
	}
	return out
}

// ByAbbr finds an app by its table abbreviation; nil when absent.
func ByAbbr(abbr string) *App {
	for _, a := range registry {
		if a.Abbr == abbr {
			return a
		}
	}
	return nil
}
