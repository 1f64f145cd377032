package bugs

import (
	"time"

	"nodefz/internal/eventloop"
	"nodefz/internal/lag"
	"nodefz/internal/metrics"
	"nodefz/internal/oracle"
	"nodefz/internal/sched"
	"nodefz/internal/simfs"
	"nodefz/internal/simnet"
	"nodefz/internal/vclock"
)

// Arena is a reusable per-trial world: one virtual clock, one event loop
// (with its worker pool), one network, and optionally one metrics registry,
// built on the first trial and *reset in place* between trials instead of
// being torn down and rebuilt. Constructing a trial world dominates
// short-trial cost — timer churn, registry instruments, RNG state, and the
// goroutine plumbing all allocate — so a campaign worker that pins one
// arena and resets it turns per-trial setup into a handful of truncations
// and reseeds.
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
//     (the pool's workers when the trial acquires the loop, the network
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

	loop *eventloop.Loop
	net  *simnet.Network

	// Collaborators pinned at first build. A later Begin with different
	// objects discards the world and rebuilds — arenas only pay off when
	// the caller resets these in place and hands back the same ones.
	sched eventloop.Scheduler
	rec   eventloop.Recorder
	probe *oracle.Tracker

	// Per-trial acquisition flags; an app acquiring a second loop, network,
	// or FS-noise binding within one trial gets a fresh build so the
	// resident one is never shared.
	cfg       RunConfig
	loopUsed  bool
	netUsed   bool
	noiseUsed bool

	// multiLoop is set (sticky) the first time a trial builds a cluster
	// node loop (RunConfig.NewNodeLoop): a multi-node trial runs several
	// loops on one clock and may abandon some mid-trial (node kill), so the
	// world cannot be reset in place. Every later Begin discards and
	// rebuilds instead — correctness first, arena speed only where it is
	// sound.
	multiLoop bool

	// FS-noise cache: RunConfig.AddFSNoise's private filesystem and its
	// jittered async binding, reset and reseeded per trial (a fresh Bind
	// allocates a multi-KB rand state).
	noiseFS  *simfs.FS
	noiseFSA *simfs.Async
}

// NewArena builds an empty arena. collectMetrics decides once whether
// trials record into a (reused, reset-per-trial) registry or run lean —
// the loop's metric instrument handles are resolved against the registry
// at construction, so the choice cannot change per trial.
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
	if a.multiLoop {
		a.Discard()
	}
	if a.loop != nil &&
		(cfg.Scheduler != a.sched || cfg.Recorder != a.rec || cfg.Oracle != a.probe) {
		a.Discard()
	}
	if a.loop != nil {
		// Tear down what the trial left running, then rewind. Close joins
		// the delivery engine (idempotent when the app already closed the
		// network), so after it every participant has exited — the state
		// clk.Reset expects.
		if a.net != nil {
			a.net.Close()
		}
		a.clk.Reset()
		if a.reg != nil {
			a.reg.Reset()
		}
		a.loop.Reset()
	}
	a.cfg = cfg
	a.cfg.Clock = a.clk
	a.cfg.Metrics = a.reg
	a.cfg.Arena = a
	a.loopUsed, a.netUsed, a.noiseUsed = false, false, false
	return a.cfg
}

// Discard drops the resident world so the next Begin builds a fresh one —
// the escape hatch after a trial panicked mid-run and left the world in an
// unknown state. The dead world's participants stay abandoned on the old
// clock, exactly as a panicked fresh-world trial abandons them.
func (a *Arena) Discard() {
	a.loop = nil
	a.net = nil
	a.noiseFS = nil
	a.noiseFSA = nil
	a.sched, a.rec, a.probe = nil, nil, nil
	a.clk = vclock.NewVirtual()
	if a.reg != nil {
		a.reg = metrics.NewRegistry()
	}
}

// noteMultiLoop marks the arena's current trial multi-loop; see the field.
func (a *Arena) noteMultiLoop() { a.multiLoop = true }

// acquireLoop hands the trial the arena's resident loop, building it on
// first use; nil when this trial already claimed it (the caller then builds
// a fresh loop on the arena's clock).
func (a *Arena) acquireLoop(cfg RunConfig) *eventloop.Loop {
	if a.loopUsed {
		return nil
	}
	a.loopUsed = true
	if a.loop == nil {
		a.sched, a.rec, a.probe = cfg.Scheduler, cfg.Recorder, cfg.Oracle
		fresh := cfg
		fresh.Arena = nil
		a.loop = fresh.NewLoop()
		return a.loop
	}
	// Reuse: re-stamp the recorder with the (rewound) trial clock, respawn
	// the workers where New would have, and re-attach the lag probe the
	// fresh path would attach.
	if r, ok := cfg.Recorder.(*sched.Recorder); ok && r != nil {
		r.Now = a.clk.Now
	}
	a.loop.RestartPool()
	if a.reg != nil && cfg.LagProbeEvery > 0 {
		m := lag.New(a.loop, cfg.LagProbeEvery, 0).Attach(a.reg)
		a.loop.AtExit(func() { m.Snapshot().FoldInto(a.reg) })
	}
	return a.loop
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
// reseeded; nil when this trial already claimed it or the loop is not the
// arena's resident loop.
func (a *Arena) acquireNoise(l *eventloop.Loop, latency time.Duration, seed int64) *simfs.Async {
	if a.noiseUsed || l != a.loop {
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
