// Package nodefz's root benchmark harness: one benchmark per table and
// figure of the paper (DESIGN.md §6 maps each to its experiment), plus
// microbenchmarks of the runtime primitives.
//
// The figure benchmarks measure the wall time of one experiment unit (a
// trial, a suite run); their relative ns/op across modes IS the figure-8
// story, and their outputs print the rows the paper reports. Run:
//
//	go test -bench=. -benchmem
package nodefz

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nodefz/internal/bugs"
	"nodefz/internal/campaign"
	"nodefz/internal/conformance"
	"nodefz/internal/core"
	"nodefz/internal/emitter"
	"nodefz/internal/eventloop"
	"nodefz/internal/fleet"
	"nodefz/internal/harness"
	"nodefz/internal/metrics"
	"nodefz/internal/oracle"
	"nodefz/internal/sched"
	"nodefz/internal/simnet"
	"nodefz/internal/vclock"
)

// --- Tables 1-3 -----------------------------------------------------------

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.WriteTable1(io.Discard)
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.WriteTable2(io.Discard)
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.WriteTable3(io.Discard)
	}
}

// --- Figure 6: one reproduction trial per bug per mode --------------------

func BenchmarkFig6Trial(b *testing.B) {
	for _, app := range bugs.Fig6Set() {
		for _, mode := range harness.Fig6Modes() {
			app, mode := app, mode
			b.Run(fmt.Sprintf("%s/%s", app.Abbr, mode), func(b *testing.B) {
				manifested := 0
				for i := 0; i < b.N; i++ {
					seed := int64(i + 1)
					out := app.Run(bugs.RunConfig{
						Seed:      seed,
						Scheduler: harness.SchedulerFor(mode, seed),
					})
					if out.Manifested {
						manifested++
					}
				}
				b.ReportMetric(float64(manifested)/float64(b.N), "manifest/op")
			})
		}
	}
}

// --- Figure 7: schedule recording and Levenshtein comparison --------------

func BenchmarkFig7Suite(b *testing.B) {
	for _, abbr := range harness.Fig7Modules {
		for _, mode := range []harness.Mode{harness.ModeNFZ, harness.ModeFZ} {
			abbr, mode := abbr, mode
			b.Run(fmt.Sprintf("%s/%s", abbr, mode), func(b *testing.B) {
				var schedules [][]string
				for i := 0; i < b.N; i++ {
					rec := sched.NewRecorder()
					app := bugs.ByAbbr(abbr)
					seed := int64(i + 1)
					app.Run(bugs.RunConfig{
						Seed:      seed,
						Scheduler: harness.SchedulerFor(mode, seed),
						Recorder:  rec,
					})
					if len(schedules) < 10 {
						schedules = append(schedules, rec.Types())
					}
				}
				if len(schedules) >= 2 {
					b.ReportMetric(sched.MeanPairwiseNLD(schedules, 20000), "NLD")
				}
			})
		}
	}
}

func BenchmarkFig7Levenshtein(b *testing.B) {
	// The distance itself, on schedules the size the paper truncates to per
	// kilocallback of schedule.
	alphabet := []string{"timer", "net-read", "work-done", "close", "immediate"}
	mk := func(n, phase int) []string {
		s := make([]string, n)
		for i := range s {
			s[i] = alphabet[(i+phase)%len(alphabet)]
		}
		return s
	}
	a, c := mk(1000, 0), mk(1000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Levenshtein(a, c)
	}
}

// --- Figure 8: suite wall time per mode ------------------------------------

func BenchmarkFig8Suite(b *testing.B) {
	for _, abbr := range harness.Fig7Modules {
		for _, mode := range harness.Fig6Modes() {
			abbr, mode := abbr, mode
			b.Run(fmt.Sprintf("%s/%s", abbr, mode), func(b *testing.B) {
				app := bugs.ByAbbr(abbr)
				for i := 0; i < b.N; i++ {
					seed := int64(i + 1)
					app.Run(bugs.RunConfig{
						Seed:      seed,
						Scheduler: harness.SchedulerFor(mode, seed),
					})
				}
			})
		}
	}
}

// --- §4.4 fidelity and §5.2.3 guided fuzzing -------------------------------

func BenchmarkFidelity(b *testing.B) {
	failures := 0
	for i := 0; i < b.N; i++ {
		seed := int64(i)
		newLoop := func() *eventloop.Loop {
			return eventloop.New(eventloop.Options{
				Scheduler: core.NewScheduler(core.StandardParams(), seed),
			})
		}
		failures += len(conformance.RunAll(newLoop, seed))
	}
	b.ReportMetric(float64(failures)/float64(b.N), "violations/op")
}

func BenchmarkGuided(b *testing.B) {
	app := bugs.ByAbbr("KUE-2014")
	for _, mode := range []harness.Mode{harness.ModeVanilla, harness.ModeFZ, harness.ModeGuided} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			manifested := 0
			for i := 0; i < b.N; i++ {
				seed := int64(i + 1)
				out := app.Run(bugs.RunConfig{
					Seed:      seed,
					Scheduler: harness.SchedulerFor(mode, seed),
				})
				if out.Manifested {
					manifested++
				}
			}
			b.ReportMetric(float64(manifested)/float64(b.N), "manifest/op")
		})
	}
}

// --- Runtime microbenchmarks ------------------------------------------------

func BenchmarkLoopTimers(b *testing.B) {
	l := eventloop.New(eventloop.Options{})
	fired := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.SetTimeout(0, func() { fired++ })
	}
	if err := l.Run(); err != nil {
		b.Fatal(err)
	}
	if fired != b.N {
		b.Fatalf("fired %d/%d", fired, b.N)
	}
}

func BenchmarkLoopImmediates(b *testing.B) {
	l := eventloop.New(eventloop.Options{})
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.SetImmediate(func() { n++ })
	}
	if err := l.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkLoopNextTick(b *testing.B) {
	l := eventloop.New(eventloop.Options{})
	n := 0
	remaining := b.N
	var chain func()
	chain = func() {
		n++
		remaining--
		if remaining > 0 {
			l.NextTick(chain)
		}
	}
	b.ResetTimer()
	l.NextTick(chain)
	if err := l.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkQueueWork(b *testing.B) {
	l := eventloop.New(eventloop.Options{})
	done := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.QueueWork("w", func() (any, error) { return nil, nil }, func(any, error) { done++ })
	}
	if err := l.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkQueueWorkSerialized(b *testing.B) {
	l := eventloop.New(eventloop.Options{
		Scheduler: core.NewScheduler(core.NoFuzzParams(), 1),
	})
	done := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.QueueWork("w", func() (any, error) { return nil, nil }, func(any, error) { done++ })
	}
	if err := l.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkEmitterEmit(b *testing.B) {
	e := emitter.New()
	n := 0
	for i := 0; i < 8; i++ {
		e.On("ev", func(...any) { n++ })
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Emit("ev")
	}
}

func BenchmarkSchedulerShuffle(b *testing.B) {
	s := core.NewScheduler(core.StandardParams(), 1)
	events := make([]*eventloop.Event, 64)
	for i := range events {
		events[i] = &eventloop.Event{Kind: "net-read"}
	}
	// Reuse the output buffers across calls, as the loop does.
	var run, deferred []*eventloop.Event
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, deferred = s.ShuffleReady(events, run[:0], deferred[:0])
		if len(run)+len(deferred) != len(events) {
			b.Fatal("lost events")
		}
	}
}

func BenchmarkRecorder(b *testing.B) {
	r := sched.NewRecorder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record("timer", "t")
	}
}

// BenchmarkNetSend measures one warm simnet message on a virtual clock: a
// Send, its delivery through the network engine, and the receiving
// endpoint's OnData, whose handler sends the next message back. Deliveries,
// loop events and the read callback are recycled or bound once per
// connection, so an op allocates only the payload copy Send makes: 1
// alloc/op.
func BenchmarkNetSend(b *testing.B) {
	const warm = 64
	clk := vclock.NewVirtual()
	l := eventloop.New(eventloop.Options{Clock: clk})
	net := simnet.New(simnet.Config{Seed: 1, Clock: clk})
	msg := []byte("ping")
	sent := 0
	var ln *simnet.Listener
	echo := func(c *simnet.Conn) {
		c.OnData(func([]byte) {
			sent++
			switch sent {
			case warm:
				b.ReportAllocs()
				b.ResetTimer()
			case warm + b.N:
				b.StopTimer()
				c.Close()
				ln.Close(nil)
				return
			}
			if err := c.Send(msg); err != nil {
				b.Error(err)
			}
		})
	}
	ln, err := net.Listen(l, "echo", echo)
	if err != nil {
		b.Fatal(err)
	}
	net.Dial(l, "echo", func(c *simnet.Conn, err error) {
		if err != nil {
			b.Error(err)
			return
		}
		echo(c)
		if err := c.Send(msg); err != nil {
			b.Error(err)
		}
	})
	if err := l.Run(); err != nil {
		b.Fatal(err)
	}
	net.Close()
	if sent != warm+b.N {
		b.Fatalf("sent %d messages, want %d", sent, warm+b.N)
	}
}

// BenchmarkClockStep measures one step dispatch of a virtual clock: four
// participants whose steps wait After varied durations and notify their
// neighbour every third step, so deadlines are filed, popped at a time jump
// and withdrawn by a notify. An untimed round first grows the run queue and
// the deadline heap, which Reset keeps: 0 allocs/op.
func BenchmarkClockStep(b *testing.B) {
	clk := vclock.NewVirtual()
	var procs [4]vclock.Proc
	var g vclock.Group
	steps, budget := 0, 0
	for i := range procs {
		i := i
		procs[i].Init(clk, i%3, func() vclock.Wait {
			if steps >= budget {
				return vclock.Exit()
			}
			steps++
			if steps%3 == 0 {
				procs[(i+1)%len(procs)].Notify(false)
			}
			return vclock.After(time.Duration(1+(7*steps+i)%5) * time.Microsecond)
		})
	}
	run := func(n int) {
		steps, budget = 0, n
		for i := range procs {
			procs[i].Spawn(&g)
		}
		vclock.Join(clk, &g)
	}
	run(256)
	clk.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	if steps != b.N {
		b.Fatalf("ran %d steps, want %d", steps, b.N)
	}
}

// --- Oracle hot path ---------------------------------------------------------

// BenchmarkOracleUnit measures the oracle hooks one loop callback pays on a
// warm tracker: capture a registration ref, begin a keyed unit, tag one
// access and one sync, end the unit. The tracker is reset every 64 units, as
// a campaign worker resets it between trials, so recycled units and interned
// kinds serve every op after the first cycle: 0 allocs/op.
func BenchmarkOracleUnit(b *testing.B) {
	tr := oracle.New()
	kinds := []string{"timer", "net-read", "work-done", "immediate"}
	key := new(int)
	step := func(i int) {
		if i%64 == 0 {
			tr.Reset()
		}
		ref := tr.Current()
		tok := tr.BeginKeyed(kinds[i%len(kinds)], "", key, ref)
		tr.Access("db:k", oracle.Write)
		tr.Sync("counter")
		tr.End(tok)
	}
	for i := 0; i < 128; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

// sioKinds is the callback-kind schedule of one SIO campaign trial
// (`fzcampaign -app SIO -seed 3`, trial 0).
var sioKinds = []string{
	"net-accept", "timer", "net-accept", "net-connect", "timer", "net-connect", "net-read", "net-read",
	"timer", "timer", "net-read", "timer", "timer", "net-read", "timer", "net-read", "immediate", "close",
	"net-read", "close", "timer", "timer", "net-close", "net-close", "close", "close", "close", "timer",
	"timer", "timer", "timer", "timer", "timer", "timer", "timer", "timer", "timer", "timer", "timer",
}

// BenchmarkOracleCoverage measures one SIO-shaped trial's coverage on a warm
// tracker: reset, replay sioKinds as top-level units (network deliveries
// keyed per connection, the immediate writing a cell the reads read), then
// take the Coverage digest the campaign journals.
func BenchmarkOracleCoverage(b *testing.B) {
	tr := oracle.New()
	conns := [2]int{}
	refs := make([]oracle.Ref, 0, len(sioKinds)+1)
	trial := func() oracle.CoverageDigest {
		tr.Reset()
		refs = append(refs[:0], tr.Current())
		for i, kind := range sioKinds {
			var key any
			if strings.HasPrefix(kind, "net-") {
				key = &conns[i%2]
			}
			tok := tr.BeginKeyed(kind, "", key, refs[(i*7)%len(refs)])
			switch kind {
			case "immediate":
				tr.Access("sio:clients", oracle.Write)
			case "net-read":
				tr.Access("sio:clients", oracle.Read)
			}
			tr.End(tok)
			refs = append(refs, tok.Ref())
		}
		return tr.Coverage()
	}
	// Two warm-up trials: the second one's Reset sizes the freelists every
	// later trial recycles its units and cells through.
	for i := 0; i < 2; i++ {
		if d := trial(); len(d.RacingPairs) == 0 || len(d.Tuples) == 0 {
			b.Fatalf("replay covers nothing: %+v", d)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trial()
	}
}

// --- Metrics hot path --------------------------------------------------------

func BenchmarkMetricsCounter(b *testing.B) {
	c := metrics.NewRegistry().Counter("bench")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkMetricsHistogram(b *testing.B) {
	h := metrics.NewRegistry().Histogram("bench", metrics.DurationBounds())
	b.RunParallel(func(pb *testing.PB) {
		v := int64(1)
		for pb.Next() {
			h.Observe(v)
			v = v*6364136223846793005 + 1442695040888963407 // cheap LCG spread
		}
	})
}

// BenchmarkLoopTimersInstrumented is BenchmarkLoopTimers against an explicit
// registry; the delta to the uninstrumented run bounds the per-callback cost
// of the phase instruments and timing a registry turns on.
func BenchmarkLoopTimersInstrumented(b *testing.B) {
	l := eventloop.New(eventloop.Options{Metrics: metrics.NewRegistry()})
	fired := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.SetTimeout(0, func() { fired++ })
	}
	if err := l.Run(); err != nil {
		b.Fatal(err)
	}
	if fired != b.N {
		b.Fatalf("fired %d/%d", fired, b.N)
	}
}

// --- Virtual time (DESIGN.md time virtualization) ---------------------------

// BenchmarkTrialVirtualVsWall runs the same timer-heavy fuzzing trial under
// the wall clock and under the virtual clock. The wall run pays real time
// for network latency, injected delays, and detector timers; the virtual
// run jumps straight to each deadline. The ratio between the two ns/op IS
// the speedup virtual time gives every campaign trial. The virtual arm runs
// the way a campaign runs its trials: one trial arena per worker, reset
// between trials, rather than rebuilding the loop/pool/clock world from
// scratch every seed.
func BenchmarkTrialVirtualVsWall(b *testing.B) {
	app := bugs.ByAbbr("SIO")
	b.Run("wall", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seed := int64(i + 1)
			app.Run(bugs.RunConfig{
				Seed:      seed,
				Scheduler: harness.SchedulerFor(harness.ModeFZ, seed),
			})
		}
	})
	b.Run("virtual", func(b *testing.B) {
		arena := bugs.NewArena(false)
		sc := core.NewScheduler(core.StandardParams(), 1)
		run := func(seed int64) {
			sc.Reseed(core.StandardParams(), seed)
			app.Run(arena.Begin(bugs.RunConfig{Seed: seed, Scheduler: sc}))
		}
		run(1) // build the arena world outside the measured window
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(int64(i + 2))
		}
	})
}

// BenchmarkTrialReset measures one trial through a reused arena world — the
// steady state every campaign worker runs in under virtual time: reseed the
// scheduler, reset the recorder/trace/oracle, Begin the arena, run the app.
// Its ratio to BenchmarkTrialVirtualVsWall/virtual (the build-everything
// path) is the tentpole's headline number.
func BenchmarkTrialReset(b *testing.B) { benchArenaTrial(b, "SIO") }

// BenchmarkClusterTrialReset is BenchmarkTrialReset for the cluster tier:
// one REP-elect trial through a reused arena world, whose control loop and
// node loops are arena slots reset in place — the steady state of a cluster
// campaign's worker.
func BenchmarkClusterTrialReset(b *testing.B) { benchArenaTrial(b, "REP-elect") }

// benchArenaTrial measures one trial of the app abbr through a reused arena
// world, with the recorder, trace and oracle a campaign worker resets
// alongside it.
func benchArenaTrial(b *testing.B, abbr string) {
	app := bugs.ByAbbr(abbr)
	arena := bugs.NewArena(false)
	inner := core.NewScheduler(core.StandardParams(), 1)
	recording := core.NewRecording(inner)
	rec := sched.NewRecorder()
	tracker := oracle.New()
	run := func(seed int64) {
		inner.Reseed(core.StandardParams(), seed)
		recording.Reset()
		rec.Reset()
		tracker.Reset()
		app.Run(arena.Begin(bugs.RunConfig{
			Seed:      seed,
			Scheduler: recording,
			Recorder:  rec,
			Oracle:    tracker,
		}))
	}
	run(1) // build the world outside the measured window
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(int64(i + 2))
	}
}

// BenchmarkClusterTrial measures one full cluster trial: three repkv
// replicas (each its own loop and pool) plus the control loop on one
// virtual clock and one simnet, the partition/heal fault script, open-loop
// background reads, and end-to-end detection. The world is built fresh per
// op, as a single-shot run (fzrun, the harness sweeps) builds it; campaigns
// run cluster trials through an arena, which BenchmarkClusterTrialReset
// measures.
func BenchmarkClusterTrial(b *testing.B) {
	app := bugs.ByAbbr("REP-elect")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		app.Run(bugs.RunConfig{
			Seed:      seed,
			Scheduler: harness.SchedulerFor(harness.ModeFZ, seed),
			Clock:     vclock.NewVirtual(),
		})
	}
}

// BenchmarkLevenshtein measures the schedule distance (interning plus the
// bit-vector kernel) on paper-scale type schedules (§5.3 truncates at 20K
// callbacks; 1K per op keeps the benchmark itself fast while exercising the
// same inner loop).
func BenchmarkLevenshtein(b *testing.B) {
	kinds := []string{"timer", "net-read", "work", "work-done", "close", "immediate"}
	mk := func(n, phase int) []string {
		s := make([]string, n)
		for i := range s {
			s[i] = kinds[(i*7+phase)%len(kinds)]
		}
		return s
	}
	x, y := mk(1000, 0), mk(1000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Levenshtein(x, y)
	}
}

// BenchmarkCorpusAdmit measures one corpus admission — digest, intern,
// nearest-neighbour scan — against a corpus at capacity, the steady state a
// long campaign runs in. "near" offers variants of member 0, which fall
// below the threshold and are rejected. "far" uses the campaign defaults
// (novelty threshold, capacity 64, truncation 256) and independent random
// candidates, so every offer is admitted and evicts, as on REP-elect.
func BenchmarkCorpusAdmit(b *testing.B) {
	kinds := []string{"timer", "net-read", "work", "work-done", "close", "immediate"}
	fill := func(s []string, x uint64) uint64 {
		for i := range s {
			x = x*6364136223846793005 + 1442695040888963407
			s[i] = kinds[x%uint64(len(kinds))]
		}
		return x
	}
	mk := func(seed, n int) []string {
		s := make([]string, n)
		fill(s, uint64(seed)*2654435761+99991)
		return s
	}
	b.Run("near", func(b *testing.B) {
		const schedLen = 1000
		c := campaign.NewCorpus(0.05, 32, schedLen)
		for i := 0; i < 32; i++ {
			c.AdmitWithCoverage(mk(i, schedLen), nil)
		}
		cand := mk(0, schedLen)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Patch a few positions so every offer has a fresh digest and
			// pays the full nearest-neighbour scan, not the duplicate fast
			// path.
			for k := 0; k < 4; k++ {
				cand[(i*131+k*257)%schedLen] = kinds[(i+k)%len(kinds)]
			}
			c.AdmitWithCoverage(cand, nil)
		}
	})
	b.Run("far", func(b *testing.B) {
		const schedLen = campaign.DefaultScheduleTruncate
		c := campaign.NewCorpus(campaign.DefaultNoveltyThreshold, campaign.DefaultCorpusCapacity, schedLen)
		cand := make([]string, schedLen)
		x := uint64(12345)
		// Fill the corpus and run one round of evictions, so the measured
		// offers reuse evicted members' storage.
		for i := 0; i < 2*campaign.DefaultCorpusCapacity; i++ {
			x = fill(cand, x)
			c.AdmitWithCoverage(cand, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x = fill(cand, x)
			if adm := c.AdmitWithCoverage(cand, nil); !adm.Admitted || !adm.Evicted {
				b.Fatalf("offer %d: admitted %v, evicted %v (novelty %v)", i, adm.Admitted, adm.Evicted, adm.Novelty)
			}
		}
	})
}

// BenchmarkJournalAppend measures one checkpoint journal append: an admitted
// SIO trial record, shaped like a coverage campaign's, encoded and written
// to the file in one write. A checkpointed campaign pays it once per trial.
func BenchmarkJournalAppend(b *testing.B) {
	j, err := campaign.OpenJournal(filepath.Join(b.TempDir(), "journal.jsonl"), true)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	kinds := []string{"timer", "net-accept", "net-connect", "net-read", "timer", "close"}
	schedule := make([]string, 40)
	for i := range schedule {
		schedule[i] = kinds[i%len(kinds)]
	}
	entry := campaign.TrialEntry{
		Type: "trial", Trial: 1, Seed: campaign.TrialSeed(3, 1), Arm: 1, ArmName: "guided-timer",
		Novelty: 0.4444, Admitted: true, Digest: "1e5024a2997011f4", Reward: 0.5197,
		Schedule: schedule, Violations: 2, NewCoverage: 0.4318,
	}
	// The first append sizes the encoder's pooled scratch; measure the
	// steady state after it.
	if err := j.Append(entry); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entry.Trial = i
		if err := j.Append(entry); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadJournal measures reading a checkpoint journal back: the
// load half of a resume. The journal is a 200-trial SIO coverage campaign's
// (trial, coverage and minimized records, ~107 KB), written once before
// the timer starts.
func BenchmarkLoadJournal(b *testing.B) {
	path := filepath.Join(b.TempDir(), "journal.jsonl")
	if _, err := campaign.Run(campaign.Config{
		App: bugs.ByAbbr("SIO"), Trials: 200, Workers: 1, BaseSeed: 3,
		Coverage: true, CheckpointPath: path,
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := campaign.LoadJournal(path)
		if err != nil || len(st.Trials) != 200 {
			b.Fatalf("LoadJournal: %d trials, %v", len(st.Trials), err)
		}
	}
}

// BenchmarkFleetSlice measures one meta-scheduler step — an allocation
// decision plus its granted slice of virtual-time trials — against a warm
// three-campaign fleet. This is the unit of work fzfleet repeats until the
// global budget drains, so its ns/op bounds fleet throughput.
func BenchmarkFleetSlice(b *testing.B) {
	var specs []fleet.Spec
	for _, abbr := range []string{"SIO", "KUE", "MGS"} {
		specs = append(specs, fleet.Spec{App: bugs.ByAbbr(abbr)})
	}
	f, err := fleet.New(fleet.Config{
		Specs:        specs,
		GlobalTrials: 1 << 30, // never the limiting factor
		SliceTrials:  5,
		BaseSeed:     1,
		Oracle:       true,
		Coverage:     true,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm up past the cold-start sweep so steady-state picks are measured.
	for i := 0; i < len(specs); i++ {
		if _, ok := f.Step(); !ok {
			b.Fatal("fleet stopped during warm-up")
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := f.Step(); !ok {
			b.Fatal("fleet stopped mid-benchmark")
		}
	}
}
