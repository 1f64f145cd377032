package harness

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"nodefz/internal/bugs"
	"nodefz/internal/core"
	"nodefz/internal/sched"
	"nodefz/internal/vclock"
)

// runVirtualTrial executes one live trial of abbr under a fresh virtual
// clock, returning the full scheduler decision trace, the recorded type
// schedule, and the (virtual) entry timestamps.
func runVirtualTrial(t *testing.T, abbr string, mode Mode, seed int64) (*core.Trace, []string, []time.Time) {
	t.Helper()
	app := bugs.ByAbbr(abbr)
	if app == nil {
		t.Fatalf("unknown app %q", abbr)
	}
	recording := core.NewRecording(SchedulerFor(mode, seed))
	rec := sched.NewRecorder()
	app.Run(bugs.RunConfig{
		Seed:      seed,
		Scheduler: recording,
		Recorder:  rec,
		Clock:     vclock.NewVirtual(),
	})
	entries := rec.Entries()
	stamps := make([]time.Time, len(entries))
	for i, e := range entries {
		stamps[i] = e.At
	}
	return recording.Trace(), rec.Types(), stamps
}

// TestVirtualTimeDeterminism: under the virtual clock a trial is a pure
// function of the seed. Unlike TestSeedDeterminism's synthetic driver, this
// runs LIVE trials — loop, worker pool, and network engine all scheduling
// against the clock — and demands bit-identical results across runs: the
// same decision trace, the same type schedule, and the same virtual
// timestamps. Run with -race: any two participants executing concurrently
// is exactly the kind of bug that breaks this guarantee.
func TestVirtualTimeDeterminism(t *testing.T) {
	const runs = 3
	for _, tc := range []struct {
		abbr string
		mode Mode
	}{
		{"SIO", ModeFZ},  // network-heavy: loop + simnet engine
		{"MKD", ModeFZ},  // filesystem-heavy: loop + worker pool
		{"KUE", ModeNFZ}, // no-fuzz serialized baseline
	} {
		tc := tc
		t.Run(tc.abbr+"/"+tc.mode.String(), func(t *testing.T) {
			t.Parallel()
			baseTrace, baseTypes, baseStamps := runVirtualTrial(t, tc.abbr, tc.mode, 42)
			if len(baseTypes) == 0 {
				t.Fatal("trial recorded no callbacks — test is vacuous")
			}
			for r := 1; r < runs; r++ {
				tr, types, stamps := runVirtualTrial(t, tc.abbr, tc.mode, 42)
				if !reflect.DeepEqual(baseTrace, tr) {
					t.Fatalf("run %d: decision trace diverged from run 0", r)
				}
				if !reflect.DeepEqual(baseTypes, types) {
					t.Fatalf("run %d: type schedule diverged from run 0:\n%v\nvs\n%v",
						r, baseTypes, types)
				}
				if !reflect.DeepEqual(baseStamps, stamps) {
					t.Fatalf("run %d: virtual timestamps diverged from run 0", r)
				}
			}

			// Distinct seeds must still explore distinct schedules (the clock
			// must not collapse the fuzzer's randomness).
			if tc.mode == ModeFZ {
				otherTrace, _, _ := runVirtualTrial(t, tc.abbr, tc.mode, 43)
				if reflect.DeepEqual(baseTrace, otherTrace) {
					t.Error("different seeds produced identical decision traces")
				}
			}
		})
	}
}

// TestVirtualTimeDeterminismSweep is the corpus-wide determinism gate:
// every app × every Figure-6 mode, run twice with the same seed under a
// virtual clock, must produce bit-identical decision traces, type
// schedules, and virtual timestamps. Under -short the sweep keeps the
// promise-combinator variants (the newest, most microtask-entangled
// schedules) and relies on TestVirtualTimeDeterminism for the rest.
func TestVirtualTimeDeterminismSweep(t *testing.T) {
	apps := bugs.All()
	if testing.Short() {
		apps = []*bugs.App{bugs.ByAbbr("RST-prom"), bugs.ByAbbr("AKA-prom")}
	}
	for _, app := range apps {
		app := app
		for _, mode := range Fig6Modes() {
			mode := mode
			t.Run(app.Abbr+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				trace1, types1, stamps1 := runVirtualTrial(t, app.Abbr, mode, 42)
				if len(types1) == 0 {
					t.Fatal("trial recorded no callbacks — test is vacuous")
				}
				trace2, types2, stamps2 := runVirtualTrial(t, app.Abbr, mode, 42)
				if !reflect.DeepEqual(trace1, trace2) {
					t.Fatal("decision trace diverged between identical-seed runs")
				}
				if !reflect.DeepEqual(types1, types2) {
					t.Fatalf("type schedule diverged between identical-seed runs:\n%v\nvs\n%v",
						types1, types2)
				}
				if !reflect.DeepEqual(stamps1, stamps2) {
					t.Fatal("virtual timestamps diverged between identical-seed runs")
				}
			})
		}
	}
}

// TestWallModeRegression: with virtual time off nothing changes — RunConfig
// with a nil Clock still hands the loop a wall clock, waits consume real
// time, and trials complete normally.
func TestWallModeRegression(t *testing.T) {
	if _, ok := (bugs.RunConfig{}).NewLoop().Clock().(vclock.Wall); !ok {
		t.Fatal("nil RunConfig.Clock must yield a wall clock")
	}
	if c := bugs.TrialClock(); c != nil {
		t.Fatalf("TrialClock must default to nil (wall), got %T", c)
	}

	app := bugs.ByAbbr("SIO")
	rec := sched.NewRecorder()
	start := time.Now()
	app.Run(bugs.RunConfig{
		Seed:      42,
		Scheduler: SchedulerFor(ModeNFZ, 42),
		Recorder:  rec,
	})
	elapsed := time.Since(start)
	if rec.Len() == 0 {
		t.Fatal("wall-mode trial recorded no callbacks")
	}
	// SIO's network round trips sit at millisecond scale; a wall-mode trial
	// must actually spend that time (a virtual trial finishes in microseconds).
	if elapsed < 2*time.Millisecond {
		t.Fatalf("wall-mode trial took %v — waits did not consume real time", elapsed)
	}
}

// goroutineProbe is a Recorder that samples the process's goroutine count
// at every callback and task a trial runs.
type goroutineProbe struct{ max, samples int }

func (p *goroutineProbe) Record(string, string) {
	p.samples++
	p.max = max(p.max, runtime.NumGoroutine())
}

// TestVirtualTrialsRunOnOneGoroutine: a virtual trial runs every
// participant — loops, pool workers, the network engine — on the goroutine
// that runs the app, so no trial ever adds a goroutine. Every registry app
// runs under nodeV and nodeFZ on a fresh virtual clock, and SIO and
// REP-elect also run through an arena.
func TestVirtualTrialsRunOnOneGoroutine(t *testing.T) {
	check := func(name string, probe *goroutineProbe, trial func()) {
		t.Helper()
		probe.max, probe.samples = 0, 0
		before := runtime.NumGoroutine()
		trial()
		if probe.samples == 0 {
			t.Errorf("%s: the trial recorded nothing", name)
		}
		if probe.max > before {
			t.Errorf("%s: %d goroutines inside the trial, %d before it", name, probe.max, before)
		}
	}
	for _, app := range bugs.All() {
		for _, mode := range []Mode{ModeVanilla, ModeFZ} {
			probe := &goroutineProbe{}
			check(app.Abbr+"/"+mode.String(), probe, func() {
				app.Run(bugs.RunConfig{Seed: 7, Scheduler: SchedulerFor(mode, 7), Recorder: probe, Clock: vclock.NewVirtual()})
			})
		}
	}
	for _, abbr := range []string{"SIO", "REP-elect"} {
		app := bugs.ByAbbr(abbr)
		arena := bugs.NewArena(false)
		s := core.NewScheduler(core.StandardParams(), 0)
		probe := &goroutineProbe{}
		for seed := int64(1); seed <= 3; seed++ {
			s.Reseed(core.StandardParams(), seed)
			check(fmt.Sprintf("arena/%s/seed%d", abbr, seed), probe, func() {
				app.Run(arena.Begin(bugs.RunConfig{Seed: seed, Scheduler: s, Recorder: probe}))
			})
		}
	}
}
