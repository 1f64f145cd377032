package bugs

import (
	"time"

	"nodefz/internal/eventloop"
	"nodefz/internal/metrics"
	"nodefz/internal/oracle"
	"nodefz/internal/simfs"
	"nodefz/internal/simnet"
	"nodefz/internal/vclock"
)

// Arena is a reusable per-trial world: one virtual clock, the trial's event
// loops (each with its worker pool), one network, and optionally one
// metrics registry, built on the first trial and *reset in place* between
// trials instead of being torn down and rebuilt. Constructing a trial world
// dominates short-trial cost — timer churn, registry instruments, RNG
// state, and the goroutine plumbing all allocate — so a campaign worker
// that pins one arena and resets it turns per-trial setup into a handful of
// truncations and reseeds.
//
// The contract is bit-identical behavior: a trial run through an arena must
// produce exactly the trace, oracle reports, and coverage digest the same
// trial produces in a freshly built world. Two things make that hold:
//
//   - every reset restores the exact post-construction state (seeding a
//     frand source restores exactly its post-construction state; the virtual
//     clock rewinds to the epoch with an empty run queue and no deadlines;
//     sequence counters rewind to zero);
//   - participants respawn at the same program points as fresh construction
//     (a loop's workers when the trial acquires the loop, the network
//     engine when it acquires the network): under the virtual clock spawn
//     order is run order, so the virtual run order is identical.
//
// An Arena is virtual-time only (resetting wall time is not a thing) and
// single-threaded: one trial at a time, Begin before each. The campaign
// pins one arena per executor worker. Single-shot paths (fzrun, harness
// tests, minimization replays) never see one.
type Arena struct {
	clk *vclock.Virtual
	reg *metrics.Registry // non-nil iff the arena collects metrics

	// loops are the loop slots, in the order trials acquire loops: slot 0 is
	// a trial's first loop (RunConfig.NewLoop), built with the arena's
	// registry; cluster node loops (RunConfig.NewNodeLoop, which drops
	// metrics), restarts included, take the slots after it. next is the
	// current trial's next slot. Every slot is reset at Begin: a trial stops
	// and drains each loop it ran, killed nodes' loops too, before it
	// returns.
	loops []*eventloop.Loop
	next  int
	net   *simnet.Network

	// Collaborators the world's loops are built with. A later Begin with
	// different objects discards the world and rebuilds — arenas only pay
	// off when the caller resets these in place and hands back the same
	// ones.
	sched eventloop.Scheduler
	rec   eventloop.Recorder
	probe *oracle.Tracker

	// Per-trial acquisition flags; an app acquiring a second network or
	// FS-noise binding within one trial gets a fresh build so the resident
	// one is never shared.
	netUsed   bool
	noiseUsed bool

	// FS-noise cache: RunConfig.AddFSNoise's private filesystem and its
	// jittered async binding, reset and reseeded per trial instead of
	// rebuilt (a fresh pair allocates a filesystem root, its maps and the
	// binding).
	noiseFS  *simfs.FS
	noiseFSA *simfs.Async
}

// NewArena builds an empty arena. collectMetrics decides once whether
// trials record into a (reused, reset-per-trial) registry or build no
// instruments at all — a loop resolves its instrument handles against the
// registry when it is built, so the choice cannot change per trial.
func NewArena(collectMetrics bool) *Arena {
	a := &Arena{clk: vclock.NewVirtual()}
	if collectMetrics {
		a.reg = metrics.NewRegistry()
	}
	return a
}

// Registry returns the arena's metrics registry; nil when the arena was
// built without metrics. The caller snapshots it after a trial and must not
// touch it once the next Begin runs (Begin resets it).
func (a *Arena) Registry() *metrics.Registry { return a.reg }

// Begin re-arms the arena for one trial and returns the RunConfig to hand
// to App.Run: cfg with the arena's clock, registry, and the arena itself
// installed. cfg's Scheduler, Recorder, and Oracle must already be reset
// for the new trial; Begin resets everything the arena owns. The previous
// trial must be fully over — its App.Run returned.
func (a *Arena) Begin(cfg RunConfig) RunConfig {
	if len(a.loops) > 0 &&
		(cfg.Scheduler != a.sched || cfg.Recorder != a.rec || cfg.Oracle != a.probe) {
		a.Discard()
	}
	a.sched, a.rec, a.probe = cfg.Scheduler, cfg.Recorder, cfg.Oracle
	// Tear down what the trial left running, then rewind. Close joins the
	// delivery engine (idempotent when the app already closed the network),
	// so after it every participant has exited — the state clk.Reset
	// expects.
	if a.net != nil {
		a.net.Close()
	}
	a.clk.Reset()
	if a.reg != nil {
		a.reg.Reset()
	}
	for _, l := range a.loops {
		l.Reset()
	}
	cfg.Clock = a.clk
	cfg.Metrics = a.reg
	cfg.Arena = a
	a.next, a.netUsed, a.noiseUsed = 0, false, false
	return cfg
}

// Discard drops the resident world so the next Begin builds a fresh one —
// the escape hatch after a trial panicked mid-run and left the world in an
// unknown state. The dead world's participants stay abandoned on the old
// clock, exactly as a panicked fresh-world trial abandons them.
func (a *Arena) Discard() {
	a.loops = nil
	a.net = nil
	a.noiseFS = nil
	a.noiseFSA = nil
	a.clk = vclock.NewVirtual()
	if a.reg != nil {
		a.reg = metrics.NewRegistry()
	}
}

// acquireLoop hands the trial its next loop. On an arena that is the next
// slot, reset at Begin, with its workers respawned where eventloop.New would
// spawn them; with no arena, or past the last slot, it is a loop built from
// cfg, which an arena keeps as a new slot.
func (a *Arena) acquireLoop(cfg RunConfig) *eventloop.Loop {
	if a != nil && a.next < len(a.loops) {
		l := a.loops[a.next]
		a.next++
		l.RestartPool()
		return l
	}
	l := eventloop.New(eventloop.Options{
		Scheduler: cfg.Scheduler,
		Recorder:  cfg.Recorder,
		Metrics:   cfg.Metrics,
		Clock:     cfg.Clock,
		Probe:     cfg.Oracle,
	})
	if a != nil {
		a.loops = append(a.loops, l)
		a.next++
	}
	return l
}

// acquireNet hands the trial the arena's resident network, building it on
// first use; nil when this trial already claimed it.
func (a *Arena) acquireNet(conf simnet.Config) *simnet.Network {
	if a.netUsed {
		return nil
	}
	a.netUsed = true
	if a.net == nil {
		a.net = simnet.New(conf)
	} else {
		a.net.Reset(conf)
	}
	return a.net
}

// acquireNoise hands the trial the arena's FS-noise binding, reset and
// reseeded; nil when this trial already claimed it or l is not the loop in
// slot 0.
func (a *Arena) acquireNoise(l *eventloop.Loop, latency time.Duration, seed int64) *simfs.Async {
	if a.noiseUsed || len(a.loops) == 0 || l != a.loops[0] {
		return nil
	}
	a.noiseUsed = true
	if a.noiseFS == nil {
		a.noiseFS = simfs.New()
		a.noiseFSA = simfs.Bind(l, a.noiseFS, latency, seed)
	} else {
		a.noiseFS.Reset()
		a.noiseFSA.Reseed(seed)
	}
	return a.noiseFSA
}
