// Package cluster is the multi-node trial runtime: it runs several
// event-loop "nodes" — each with its own loop, worker pool, and loop-locals
// — against ONE simnet engine and ONE trial clock, so a whole replicated
// application is a deterministic pure function of its seed exactly like a
// single-node trial.
//
// The runtime owns node lifecycle, not protocol: it boots nodes, crashes
// them mid-protocol (Kill), restarts them against their surviving durable
// disk (Restart), and drives the network's partition surface by node id so
// a fault script reads like the scenario it models:
//
//	cl.Partition([]int{0}, []int{1, 2})  // isolate node 0
//	cl.Heal()
//
// Concurrency model: every mutating call (Kill, Restart, Partition, Heal)
// must run from the control loop — in practice a control-loop callback, or
// the main goroutine before the control loop runs. Under virtual time every
// loop's step runs on the goroutine driving the clock, so the calls cannot
// interleave with a node's callbacks; under wall time the same discipline
// (one control loop scripting faults) keeps the calls serialized. Join runs
// on the goroutine that ran the control loop, after its Run returned.
package cluster

import (
	"fmt"
	"time"

	"nodefz/internal/eventloop"
	"nodefz/internal/simfs"
	"nodefz/internal/simnet"
	"nodefz/internal/vclock"
)

// Addr is the simnet address node id listens on.
func Addr(id int) string { return fmt.Sprintf("node%d", id) }

// Config parameterizes a cluster.
type Config struct {
	// Nodes is the group size.
	Nodes int
	// Net is the trial's network, shared with the control loop.
	Net *simnet.Network
	// NewLoop builds one node's event loop on the trial clock — in the bug
	// corpus, bugs.RunConfig.NewNodeLoop. It is called from the control
	// loop (New and Restart both require that of their caller).
	NewLoop func() *eventloop.Loop
	// Setup installs the node's application — listeners, timers, handlers —
	// on a freshly built (or rebuilt) node before its loop starts. It runs
	// once per boot, including restarts: Env.Restarts and the surviving
	// Env.Disk are how an application distinguishes recovery from a first
	// boot.
	Setup func(*Env)
	// Watchdog, when > 0, force-stops each node loop after this long — a
	// safety net so a wedged node cannot hang a wall-time trial. The timer
	// is unref'd and never keeps a healthy node alive.
	Watchdog time.Duration
}

// Env is the per-boot environment a node's Setup receives.
type Env struct {
	// ID is the node's slot index; Addr is Addr(ID).
	ID   int
	Addr string
	// Loop is this boot's event loop. A restart gets a fresh loop — the
	// crashed boot's in-memory state is gone.
	Loop *eventloop.Loop
	// Disk is the node's durable filesystem. It survives Kill/Restart;
	// write-ahead state a recovery must replay belongs here.
	Disk *simfs.FS
	// Restarts counts completed Kill/Restart cycles: 0 on first boot.
	Restarts int

	onKill []func()
}

// OnKill registers a teardown hook run when the node is killed (or stopped
// by Join): closing the node's listener and connections there is what makes
// a crash look like a process death to its peers — dials refused, open
// connections reset. Hooks run on the killer's goroutine; simnet's Close
// calls are safe from any goroutine.
func (e *Env) OnKill(fn func()) { e.onKill = append(e.onKill, fn) }

type node struct {
	id       int
	disk     *simfs.FS
	loop     *eventloop.Loop
	env      *Env
	alive    bool
	restarts int
}

// Cluster is a booted node group. See the package comment for the
// concurrency discipline its methods require.
type Cluster struct {
	cfg   Config
	nodes []*node
	group vclock.Group // every node loop ever spawned
	// parts is the active partition by node id (nil = healed), kept so a
	// restart — whose fresh loop pointer the network has never seen — can
	// re-apply it.
	parts [][]int
}

// New builds the group's durable disks and boots every node. The caller
// must be the control loop (main during setup, or a control-loop callback).
func New(cfg Config) *Cluster {
	c := &Cluster{cfg: cfg, nodes: make([]*node, cfg.Nodes)}
	for i := range c.nodes {
		c.nodes[i] = &node{id: i, disk: simfs.New()}
		c.boot(c.nodes[i])
	}
	return c
}

func (c *Cluster) boot(nd *node) {
	l := c.cfg.NewLoop()
	nd.disk.SetClock(l.Clock())
	env := &Env{ID: nd.id, Addr: Addr(nd.id), Loop: l, Disk: nd.disk, Restarts: nd.restarts}
	nd.loop, nd.env, nd.alive = l, env, true
	c.cfg.Setup(env)
	if c.cfg.Watchdog > 0 {
		l.SetTimeoutNamed("watchdog", c.cfg.Watchdog, func() { l.Stop() }).Unref()
	}
	c.applyPartition()
	l.Go(&c.group)
}

// Alive reports whether node id is currently running.
func (c *Cluster) Alive(id int) bool { return c.nodes[id].alive }

// Restarts reports how many Kill/Restart cycles node id has completed.
func (c *Cluster) Restarts(id int) int { return c.nodes[id].restarts }

// Loop returns node id's current loop (the crashed loop until Restart).
func (c *Cluster) Loop(id int) *eventloop.Loop { return c.nodes[id].loop }

// Kill crashes node id mid-protocol: its OnKill hooks run (unbinding the
// listener, resetting connections), then the loop stops. Whatever the node
// was doing is abandoned — in-memory state is lost, queued callbacks never
// run. Only the durable disk survives into Restart. Idempotent.
func (c *Cluster) Kill(id int) {
	nd := c.nodes[id]
	if !nd.alive {
		return
	}
	nd.alive = false
	for _, fn := range nd.env.onKill {
		fn()
	}
	nd.loop.Stop()
}

// Restart boots node id again: a fresh loop, Setup run with Restarts
// incremented and the surviving disk, and the active partition re-applied
// to the new loop. The node must be dead (Kill first).
func (c *Cluster) Restart(id int) {
	nd := c.nodes[id]
	if nd.alive {
		return
	}
	nd.restarts++
	c.boot(nd)
}

// Partition splits the cluster into the given groups of node ids: traffic
// between nodes in different groups is dropped (including in-flight
// deliveries), and dials across the cut are refused. Nodes in no group —
// and every non-node endpoint, such as the control loop's clients — reach
// everyone. A later Partition replaces the whole split.
func (c *Cluster) Partition(groups ...[]int) {
	c.parts = groups
	c.applyPartition()
}

// Heal removes the active partition; traffic sent after the heal flows
// again. Deliveries dropped while the partition held stay dropped — the
// transport does not retransmit; recovering is the application's job.
func (c *Cluster) Heal() {
	c.parts = nil
	c.cfg.Net.Heal()
}

func (c *Cluster) applyPartition() {
	if c.parts == nil {
		c.cfg.Net.Heal()
		return
	}
	groups := make([][]*eventloop.Loop, len(c.parts))
	for i, g := range c.parts {
		for _, id := range g {
			groups[i] = append(groups[i], c.nodes[id].loop)
		}
	}
	c.cfg.Net.Partition(groups...)
}

// Shutdown stops every node still alive the way Kill stops one, without
// waiting for the node loops to finish. A trial should end through
// Shutdown, called from a control-loop callback (the detector's verdict
// callback is the natural place): the nodes then stop at a
// schedule-determined virtual instant, the same under every clock
// discipline, rather than whenever the control loop happens to drain.
func (c *Cluster) Shutdown() {
	for _, nd := range c.nodes {
		if !nd.alive {
			continue
		}
		nd.alive = false
		for _, fn := range nd.env.onKill {
			fn()
		}
		nd.loop.Stop()
	}
}

// Join ends the trial's node side: Shutdown (a no-op when the detector
// already shut the group down) followed by a wait for every node loop to
// finish. Call it from the goroutine that ran the control loop, after that
// Run returned; under virtual time it drives the clock until the remaining
// nodes have drained.
func (c *Cluster) Join() {
	c.Shutdown()
	vclock.Join(c.nodes[0].loop.Clock(), &c.group)
}
