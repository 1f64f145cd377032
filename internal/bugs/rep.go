package bugs

import (
	"fmt"
	"time"

	"nodefz/internal/cluster"
	"nodefz/internal/cluster/repkv"
	"nodefz/internal/eventloop"
	"nodefz/internal/loadgen"
	"nodefz/internal/oracle"
)

// The REP entries are the cluster tier's corpus: distributed concurrency
// bugs in a replicated key-value store (internal/cluster/repkv) that need
// multiple event loops, partitions, and crash/restart to manifest. They are
// novel in the paper's sense — §6 names "distributed deployments of
// event-driven servers" as the architecture the single-node tool cannot
// reach — and sit outside the Figure 6 set, which reproduces the paper's
// own single-node evaluation.
//
// Both scenarios run three replicas plus a control loop carrying the
// client, the fault script, and the detector. Background read traffic
// arrives open-loop (loadgen.Arrival) so replicas stay busy during the
// fault window. Detection is end-to-end and state-based: after the fault
// script, the detector waits for the group to converge and compares what
// clients were promised (acked INCRs) with what replicas hold.

// repCluster is the scaffold shared by the REP scenarios: three repkv
// replicas on cluster nodes, a client on the control loop, and burst-mode
// open-loop GET noise against the contested key.
type repCluster struct {
	cl       *cluster.Cluster
	kv       *repkv.Client
	replicas []*repkv.Replica
}

const repContested = "x"

func repBoot(l *eventloop.Loop, cfg RunConfig, rcfg repkv.Config, out *Outcome) *repCluster {
	rc := &repCluster{replicas: make([]*repkv.Replica, rcfg.Nodes)}
	rc.cl = cluster.New(cluster.Config{
		Nodes:    rcfg.Nodes,
		Net:      rcfg.Net,
		NewLoop:  cfg.NewNodeLoop,
		Watchdog: 600 * time.Millisecond,
		Setup: func(env *cluster.Env) {
			r, err := repkv.Boot(env, rcfg)
			if err != nil && out.Note == "" {
				out.Note = "setup: " + err.Error()
			}
			rc.replicas[env.ID] = r
		},
	})
	rc.kv = repkv.NewClient(l, rcfg.Net, rcfg.Nodes, 9*time.Millisecond)
	loadgen.Arrival{Seed: cfg.Seed, Rate: 150, Curve: loadgen.Burst}.
		Drive(l, 90*time.Millisecond, func(i int) { rc.kv.Get(repContested, i) })
	return rc
}

// settled reports whether the group converged: every live replica normal in
// one view with one leader and equal committed prefixes. Until that holds,
// promised-vs-held comparisons would race the protocol itself.
func (rc *repCluster) settled() bool {
	view, commit, leaders, first := 0, 0, 0, true
	for id, r := range rc.replicas {
		if !rc.cl.Alive(id) {
			continue
		}
		st := r.Snapshot()
		if st.Status != "normal" {
			return false
		}
		if first {
			view, commit, first = st.View, st.Commit, false
		} else if st.View != view || st.Commit != commit {
			return false
		}
		if st.Leader {
			leaders++
		}
	}
	return !first && leaders == 1
}

func (rc *repCluster) leaderCounter(key string) int {
	for id, r := range rc.replicas {
		if rc.cl.Alive(id) && r.Snapshot().Leader {
			return r.Counter(key)
		}
	}
	return -1
}

// repElectApp is REP-elect: a stale leader isolated by a partition keeps
// accepting — and, pre-patch, locally acking — writes; when the partition
// heals it installs the majority's log and the acked write evaporates. The
// race is between the minority leader's local-ack apply and the install
// that discards it: two units on the same node with no happens-before path,
// racing on the replica's applied state. The patch acks only after the
// quorum round, so a minority write is never promised (the client's retry
// lands it on the real leader instead).
func repElectApp() *App {
	return &App{
		Abbr: "REP-elect", Name: "repkv", Issue: "novel (cluster tier)",
		Type: "Application", LoC: "0.7K", DlMo: "—",
		Desc:         "Replicated key-value store",
		RaceType:     "AV",
		RacingEvents: "NW-NW",
		RaceOn:       "Replica state",
		Impact:       "Acked write silently lost.",
		FixStrategy:  "Ack only after quorum.",
		Novel:        true,
		Run:          func(cfg RunConfig) Outcome { return repElectRun(cfg, false) },
		RunFixed:     func(cfg RunConfig) Outcome { return repElectRun(cfg, true) },
	}
}

func repElectRun(cfg RunConfig, fixed bool) Outcome {
	l := cfg.NewLoop()
	net := cfg.NewNet()
	defer net.Close()
	Watchdog(l, 3*time.Second)

	var out Outcome
	rcfg := repkv.Config{
		Nodes: 3, Net: net,
		Tick: 4 * time.Millisecond, LivenessTicks: 3,
		LocalAck: !fixed,
	}
	if !fixed {
		// Shadow-state tagging, bug-kernel accesses only: the optimistic
		// local-ack apply and the install that drops it, both writes on the
		// stale node's cell for the contested key. Normal commit-path
		// applies stay untagged — they are the protocol working.
		rcfg.Tag = func(event string, node int, key string) {
			if key != repContested {
				return
			}
			switch event {
			case repkv.TagLocalAck, repkv.TagInstallDrop:
				cfg.Oracle.Access(fmt.Sprintf("repkv:n%d:%s", node, key), oracle.Write)
			}
		}
	}
	rc := repBoot(l, cfg, rcfg, &out)
	if out.Note != "" {
		return out
	}

	// Warmup: one committed write on a bystander key proves liveness and
	// gives every log a committed prefix.
	l.SetTimeoutNamed("warmup", 5*time.Millisecond, func() { rc.kv.Incr("y", 0, 0) })
	// Fault script: cut the leader off, write on both sides of the cut from
	// independent units (seq 1 at the stale leader, seq 2 at the incoming
	// one), then heal *just* in time: with 1–2.5ms wire latency, the
	// leader's first post-heal heartbeat reaches the backups inside the one
	// or two ticks they have left before the liveness deadline, so the
	// unperturbed schedule resets the election and the stale write commits
	// harmlessly. A deferred heartbeat timer (the scheduler's 5ms timer
	// deferral) flips the race: the majority elects a new view without the
	// minority write, and node 0's install drops a write its client was
	// already promised. Swept empirically: at 31ms the vanilla schedule
	// never manifests over seeds 1–15 while the standard parameterization
	// manifests on about half of them.
	l.SetTimeoutNamed("partition", 23*time.Millisecond, func() {
		rc.cl.Partition([]int{0}, []int{1, 2})
	})
	l.SetTimeoutNamed("op1", 24500*time.Microsecond, func() { rc.kv.Incr(repContested, 1, 0) })
	l.SetTimeoutNamed("op2", 25500*time.Microsecond, func() { rc.kv.Incr(repContested, 2, 1) })
	l.SetTimeoutNamed("heal", 31*time.Millisecond, func() { rc.cl.Heal() })

	WaitUntil(l, 70*time.Millisecond, 10*time.Millisecond, 14,
		func() bool { return rc.kv.Acked(1) && rc.kv.Acked(2) && rc.settled() },
		func(ok bool) {
			if ok {
				promised := rc.kv.AckedFor(repContested)
				held := rc.leaderCounter(repContested)
				if promised > held {
					out.Manifested = true
					out.Note = fmt.Sprintf(
						"acked write lost: %d INCRs acked, leader holds %d", promised, held)
				}
			} else if out.Note == "" {
				out.Note = "cluster did not converge"
			}
			rc.kv.Close()
			// End the trial from this control-loop callback: the nodes
			// stop at this schedule-determined instant, so the decision
			// trace ends identically on every replay (see
			// cluster.Shutdown).
			rc.cl.Shutdown()
		})

	if err := l.Run(); err != nil {
		return Outcome{Note: "run: " + err.Error()}
	}
	rc.cl.Join()
	return out
}

// repReplayApp is REP-replay: a leader crashes after appending a client
// write to its WAL but before the quorum round; the client's retry commits
// the write through the new leader. The pre-patch recovery then re-applies
// the WAL's uncommitted suffix on top of the state transfer, applying the
// write a second time on the restarted node. The race is between the
// pre-crash WAL append and the post-restart ghost replay — no
// happens-before path connects them, because the partition swallowed the
// append's prepares and the crash severed everything else. The patch
// discards the suffix: the group's transferred state is authoritative.
func repReplayApp() *App {
	return &App{
		Abbr: "REP-replay", Name: "repkv", Issue: "novel (cluster tier)",
		Type: "Application", LoC: "0.7K", DlMo: "—",
		Desc:         "Replicated key-value store",
		RaceType:     "AV",
		RacingEvents: "NW-FS",
		RaceOn:       "Write-ahead log",
		Impact:       "Write applied twice after restart.",
		FixStrategy:  "Discard unacked WAL suffix.",
		Novel:        true,
		Run:          func(cfg RunConfig) Outcome { return repReplayRun(cfg, false) },
		RunFixed:     func(cfg RunConfig) Outcome { return repReplayRun(cfg, true) },
	}
}

func repReplayRun(cfg RunConfig, fixed bool) Outcome {
	l := cfg.NewLoop()
	net := cfg.NewNet()
	defer net.Close()
	Watchdog(l, 3*time.Second)

	var out Outcome
	rcfg := repkv.Config{
		Nodes: 3, Net: net,
		Tick: 4 * time.Millisecond, LivenessTicks: 3,
		ReplayWAL: !fixed,
	}
	// Both variants tag the leader's WAL append of the contested key; only
	// the buggy recovery produces its racing partner, the ghost re-apply.
	rcfg.Tag = func(event string, node int, key string) {
		if key != repContested {
			return
		}
		switch event {
		case repkv.TagWALAppend, repkv.TagReplayGhost:
			cfg.Oracle.Access(fmt.Sprintf("repkv:n%d:%s", node, key), oracle.Write)
		}
	}
	rc := repBoot(l, cfg, rcfg, &out)
	if out.Note != "" {
		return out
	}

	l.SetTimeoutNamed("warmup", 5*time.Millisecond, func() { rc.kv.Incr("y", 0, 0) })
	// Fault script: isolate the leader (so its prepares for the doomed
	// write vanish), race the write against the kill, heal, restart. The
	// schedule decides whether the write reaches the WAL before the crash —
	// the precondition for the replay ghost. The write is sent 100µs before
	// the kill: with 50–500µs of wire latency the unperturbed schedule
	// usually loses the race (the request dies with the node, the retry
	// commits cleanly elsewhere), while a deferred kill timer gives the
	// append its window.
	l.SetTimeoutNamed("partition", 16*time.Millisecond, func() {
		rc.cl.Partition([]int{0}, []int{1, 2})
	})
	l.SetTimeoutNamed("op1", 20900*time.Microsecond, func() { rc.kv.Incr(repContested, 1, 0) })
	l.SetTimeoutNamed("kill", 21*time.Millisecond, func() { rc.cl.Kill(0) })
	l.SetTimeoutNamed("heal", 35*time.Millisecond, func() { rc.cl.Heal() })
	l.SetTimeoutNamed("restart", 45*time.Millisecond, func() { rc.cl.Restart(0) })

	WaitUntil(l, 80*time.Millisecond, 10*time.Millisecond, 14,
		func() bool { return rc.kv.Acked(1) && rc.settled() },
		func(ok bool) {
			if ok {
				promised := rc.kv.AckedFor(repContested)
				for id, r := range rc.replicas {
					if !rc.cl.Alive(id) {
						continue
					}
					if held := r.Counter(repContested); held != promised {
						out.Manifested = true
						out.Note = fmt.Sprintf(
							"node %d holds %d for %d acked INCRs (WAL suffix replayed)",
							id, held, promised)
						break
					}
				}
			} else if out.Note == "" {
				out.Note = "cluster did not converge"
			}
			rc.kv.Close()
			rc.cl.Shutdown()
		})

	if err := l.Run(); err != nil {
		return Outcome{Note: "run: " + err.Error()}
	}
	rc.cl.Join()
	return out
}
