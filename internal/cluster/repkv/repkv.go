// Package repkv is a miniature primary-backup replicated key-value store in
// the Viewstamped Replication mold, sized for the bug corpus: three
// replicas, a view number whose leader is view % n, full-log prepares, and
// a write-ahead log on the node's durable disk. It exists to host the REP
// corpus entries — distributed races that need real leader election, log
// replication, and crash recovery to manifest — so it trades throughput for
// being small enough to read in one sitting.
//
// Protocol sketch (one message per simnet send, in the binary format of
// codec.go):
//
//	req/reply      client -> leader: INCR key (Seq dedups retries)
//	get/getreply   client -> any: local read (no quorum; noise traffic)
//	prep/prepok    leader -> backups: full log + commit; ack carries length
//	commit         leader -> backups: commit index, doubling as heartbeat
//	svc            backup -> all: start-view-change vote for a view
//	sv             new leader -> all: start view (install log + commit)
//	getstate/state recovering or stale node -> any normal node
//
// A backup that misses the leader for LivenessTicks ticks votes view+1; the
// candidate (view % n) becomes leader on a quorum of votes, adopting the
// best log it saw. A node that hears a higher view asks for state and
// installs it; a node that hears a *lower* view sends its state back, which
// is how a stale minority leader is corrected after a partition heals.
//
// Two seeded bugs, toggled by Config (see the REP corpus entries):
//
//   - LocalAck (REP-elect): the leader applies and acks a client write on
//     local append, before the quorum round — a write acked inside a
//     minority partition is silently dropped when the healed node installs
//     the majority's log.
//   - ReplayWAL (REP-replay): crash recovery re-applies the WAL's
//     uncommitted suffix on top of the state transfer instead of discarding
//     it, double-applying writes the group already committed via a client
//     retry.
//
// Determinism: replicas draw no randomness, never iterate a map where order
// reaches the network, and persist through the synchronous disk API, so a
// cluster trial's schedule is fully owned by the trial's scheduler + clock.
package repkv

import (
	"time"

	"nodefz/internal/cluster"
	"nodefz/internal/eventloop"
	"nodefz/internal/simnet"
	"sync"
)

// Tag event names passed to Config.Tag, the shadow-state tagging hook the
// corpus uses to report racy accesses to the oracle.
const (
	// TagLocalAck: a LocalAck leader applied+acked a write before quorum.
	TagLocalAck = "local-ack"
	// TagInstallDrop: an install discarded an entry this node had already
	// applied (a locally-acked write lost to the majority's log).
	TagInstallDrop = "install-drop"
	// TagWALAppend: the leader appended a client write to its WAL.
	TagWALAppend = "wal-append"
	// TagReplayGhost: a ReplayWAL recovery re-applied a WAL suffix entry on
	// top of the installed state transfer.
	TagReplayGhost = "replay-ghost"
)

// Config parameterizes one replica group.
type Config struct {
	// Nodes is the group size (quorum is Nodes/2+1).
	Nodes int
	// Net is the trial's network.
	Net *simnet.Network
	// Tick is the replica timer period: heartbeats, liveness checks, and
	// redials all ride one multiplexed interval per replica.
	Tick time.Duration
	// LivenessTicks is how many silent ticks a backup tolerates before
	// voting a view change.
	LivenessTicks int

	// LocalAck enables the REP-elect bug; ReplayWAL the REP-replay bug.
	LocalAck  bool
	ReplayWAL bool

	// Tag, when non-nil, receives the shadow-state tagging events above.
	// The corpus apps install a closure that reports the contested key's
	// accesses to the oracle; the store itself never imports it.
	Tag func(event string, node int, key string)
}

func (c Config) quorum() int { return c.Nodes/2 + 1 }

type entry struct {
	View int
	Seq  int
	Key  string
}

// msg is one protocol message; codec.go gives its wire format.
type msg struct {
	T      msgType
	View   int
	From   int
	Seq    int
	Key    string
	Val    int
	Commit int
	OK     bool
	Log    []entry
}

const walPath = "/wal"

// Replica is one group member's state, bound to one node boot. State is
// mutex-guarded because wall-time trials run node loops concurrently and
// detectors read snapshots from the control loop.
type Replica struct {
	cfg  Config
	id   int
	loop *eventloop.Loop
	env  *cluster.Env

	mu      sync.Mutex
	view    int
	status  string // "normal", "viewchange", "recovering"
	log     []entry
	commit  int // committed prefix length
	applied int // applied prefix length (diverges from commit only in bugs)
	store   map[string]int

	peers       []*simnet.Conn // outbound conn per node id (nil = down)
	sinceLeader int
	vcStuck     int
	votes       map[int]bool // svc voters for r.view while in viewchange
	bestLog     []entry      // best log seen in svc votes
	bestCommit  int
	acks        map[int]map[int]bool // log length -> prepok voters
	clientFor   map[int]*simnet.Conn // seq -> client conn awaiting ack
	acked       map[int]bool         // seqs already acked to a client
	conns       []*simnet.Conn       // all conns to close on kill
	buf         []byte               // encoding scratch for sends and WAL appends
}

// Boot installs a replica on a cluster node: recovery from the durable WAL,
// the listener, the multiplexed tick, and the peer dials. Call from the
// cluster's Setup.
func Boot(env *cluster.Env, cfg Config) (*Replica, error) {
	r := &Replica{
		cfg:       cfg,
		id:        env.ID,
		loop:      env.Loop,
		env:       env,
		status:    "normal",
		store:     make(map[string]int),
		peers:     make([]*simnet.Conn, cfg.Nodes),
		acks:      make(map[int]map[int]bool),
		clientFor: make(map[int]*simnet.Conn),
		acked:     make(map[int]bool),
	}
	r.recover()
	ln, err := cfg.Net.Listen(env.Loop, env.Addr, func(c *simnet.Conn) { r.accept(c) })
	if err != nil {
		return nil, err
	}
	env.OnKill(func() {
		ln.Close(nil)
		r.mu.Lock()
		conns := append([]*simnet.Conn(nil), r.conns...)
		peers := append([]*simnet.Conn(nil), r.peers...)
		r.mu.Unlock()
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		for _, c := range peers {
			if c != nil {
				c.Close()
			}
		}
	})
	// Stagger the tick phase by node id, as real deployments are staggered
	// by boot order. On a shared phase every replica's timer fires at the
	// same virtual instant and a local tick always beats an in-flight
	// message, which would decide the heartbeat-vs-liveness race by grid
	// artifact instead of by schedule.
	phase := time.Duration(env.ID) * cfg.Tick / time.Duration(cfg.Nodes)
	env.Loop.SetTimeoutNamed("repkv-phase", phase, func() {
		env.Loop.SetIntervalNamed("repkv-tick", cfg.Tick, r.tick)
	})
	r.redial()
	return r, nil
}

// recover rebuilds boot state from the WAL. A first boot starts fresh; a
// restarted node comes up "recovering" — it holds its WAL'd log but asks
// the group for authoritative state before serving, because its own tail
// may be uncommitted (that suffix is where REP-replay's bug lives).
func (r *Replica) recover() {
	data, err := r.env.Disk.ReadFile(walPath)
	if err != nil || len(data) == 0 {
		if !r.env.Disk.Exists(walPath) {
			_ = r.env.Disk.Create(walPath)
		}
		return
	}
	lg, committed := decodeWAL(data)
	r.log = lg
	r.commit = committed
	for i := range lg {
		if i < committed {
			r.view = max(r.view, lg[i].View)
		}
	}
	r.status = "recovering"
}

// walAppend and walCommit persist one WAL record. Caller holds r.mu, which
// guards r.buf; Append copies the record.
func (r *Replica) walAppend(e entry) {
	r.buf = appendWALEntry(r.buf[:0], e)
	_ = r.env.Disk.Append(walPath, r.buf)
}

func (r *Replica) walCommit(c int) {
	r.buf = appendWALCommit(r.buf[:0], c)
	_ = r.env.Disk.Append(walPath, r.buf)
}

func (r *Replica) leader() int { return r.view % r.cfg.Nodes }

func (r *Replica) tag(event, key string) {
	if r.cfg.Tag != nil {
		r.cfg.Tag(event, r.id, key)
	}
}

// accept wires an inbound conn (peer or client); replies go back on it.
func (r *Replica) accept(c *simnet.Conn) {
	r.mu.Lock()
	r.conns = append(r.conns, c)
	r.mu.Unlock()
	c.OnData(func(data []byte) {
		if m, err := decodeMsg(data); err == nil {
			r.handle(m, c)
		}
	})
}

// redial dials any peer the replica has no live outbound conn to. Runs at
// boot and on every tick, which is also how a node reconnects to a peer
// that crashed and restarted.
func (r *Replica) redial() {
	for i := 0; i < r.cfg.Nodes; i++ {
		if i == r.id {
			continue
		}
		r.mu.Lock()
		have := r.peers[i] != nil && !r.peers[i].Closed()
		r.mu.Unlock()
		if have {
			continue
		}
		id := i
		r.cfg.Net.Dial(r.loop, cluster.Addr(id), func(c *simnet.Conn, err error) {
			if err != nil {
				return
			}
			c.OnData(func(data []byte) {
				if m, err := decodeMsg(data); err == nil {
					r.handle(m, c)
				}
			})
			r.mu.Lock()
			if r.peers[id] != nil && !r.peers[id].Closed() {
				r.mu.Unlock()
				c.Close()
				return
			}
			r.peers[id] = c
			r.mu.Unlock()
		})
	}
}

// send encodes m into r.buf and sends it. Caller holds r.mu; Send copies
// the message.
func (r *Replica) send(c *simnet.Conn, m msg) {
	if c == nil {
		return
	}
	m.From = r.id
	r.buf = appendMsg(r.buf[:0], m)
	_ = c.Send(r.buf)
}

// cast sends m to every peer, in node-id order (determinism: the send order
// is part of the schedule).
func (r *Replica) cast(m msg) {
	for i := 0; i < r.cfg.Nodes; i++ {
		if i == r.id {
			continue
		}
		r.send(r.peers[i], m)
	}
}

// tick is the replica's one multiplexed timer: leader heartbeats and
// re-prepares, backup liveness, view-change retries, recovery retries, and
// peer redials.
func (r *Replica) tick() {
	r.redial()
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.status {
	case "normal":
		if r.leader() == r.id {
			// Heartbeat; re-prepare while a suffix is uncommitted so lost
			// prepares (partitions drop, never retransmit) are retried.
			if r.commit < len(r.log) {
				r.cast(msg{T: msgPrep, View: r.view, Log: r.log, Commit: r.commit})
			} else {
				r.cast(msg{T: msgCommit, View: r.view, Commit: r.commit})
			}
			return
		}
		r.sinceLeader++
		if r.sinceLeader > r.cfg.LivenessTicks {
			r.startViewChange(r.view + 1)
		}
	case "viewchange":
		r.vcStuck++
		if r.vcStuck > 3*r.cfg.LivenessTicks {
			// The candidate itself may be down; move past it.
			r.startViewChange(r.view + 1)
			return
		}
		r.cast(msg{T: msgSVC, View: r.view, Log: r.log, Commit: r.commit})
	case "recovering":
		r.cast(msg{T: msgGetState, View: r.view})
	}
}

// startViewChange votes for view v. Caller holds r.mu.
func (r *Replica) startViewChange(v int) {
	r.view = v
	r.status = "viewchange"
	r.vcStuck = 0
	r.votes = map[int]bool{r.id: true}
	r.bestLog = append([]entry(nil), r.log...)
	r.bestCommit = r.commit
	r.cast(msg{T: msgSVC, View: r.view, Log: r.log, Commit: r.commit})
}

func (r *Replica) handle(m msg, from *simnet.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch m.T {
	case msgReq:
		r.onReq(m, from)
	case msgGet:
		r.send(from, msg{T: msgGetReply, View: r.view, Seq: m.Seq, Key: m.Key, Val: r.store[m.Key]})
	case msgPrep:
		r.onPrep(m, from)
	case msgPrepOK:
		r.onPrepOK(m)
	case msgCommit:
		r.onCommit(m, from)
	case msgSVC:
		r.onSVC(m)
	case msgSV:
		if m.View >= r.view {
			r.install(m.View, m.Log, m.Commit)
		}
	case msgGetState:
		if r.status == "normal" {
			r.send(from, msg{T: msgState, View: r.view, Log: r.log, Commit: r.commit})
		}
	case msgState:
		r.onState(m)
	}
}

// onReq handles a client INCR. A non-leader (or a mid-view-change /
// recovering node) NAKs so the client retries elsewhere; the leader dedups
// by Seq, appends, persists, and replicates. The LocalAck bug applies and
// acks here, before any backup has seen the entry.
func (r *Replica) onReq(m msg, from *simnet.Conn) {
	if r.status != "normal" || r.leader() != r.id {
		r.send(from, msg{T: msgReply, View: r.view, Seq: m.Seq, OK: false})
		return
	}
	for i, e := range r.log {
		if e.Seq == m.Seq {
			// Duplicate (a client retry): never re-append. Re-ack committed
			// entries; an uncommitted one acks when its quorum completes.
			if i < r.commit || r.acked[m.Seq] {
				r.ackSeq(m.Seq, from)
			} else {
				r.clientFor[m.Seq] = from
			}
			return
		}
	}
	e := entry{View: r.view, Seq: m.Seq, Key: m.Key}
	r.log = append(r.log, e)
	r.walAppend(e)
	r.tag(TagWALAppend, e.Key)
	r.clientFor[m.Seq] = from
	if r.cfg.LocalAck {
		// BUG (REP-elect): optimistic local apply + ack. Inside a minority
		// partition this acks a write the group will never commit.
		r.applyTo(len(r.log))
		r.tag(TagLocalAck, e.Key)
		r.ackSeq(m.Seq, from)
	}
	r.cast(msg{T: msgPrep, View: r.view, Log: r.log, Commit: r.commit})
}

func (r *Replica) ackSeq(seq int, c *simnet.Conn) {
	r.acked[seq] = true
	r.send(c, msg{T: msgReply, View: r.view, Seq: seq, OK: true})
}

func (r *Replica) applyOne(e entry) { r.store[e.Key]++ }

// applyTo applies committed entries the store hasn't absorbed yet.
func (r *Replica) applyTo(commit int) {
	for r.applied < commit && r.applied < len(r.log) {
		r.applyOne(r.log[r.applied])
		r.applied++
	}
}

// advanceCommit moves the committed prefix, applies, persists, and acks the
// newly committed entries' waiting clients.
func (r *Replica) advanceCommit(commit int) {
	if commit <= r.commit {
		return
	}
	if commit > len(r.log) {
		commit = len(r.log)
	}
	prev := r.commit
	r.commit = commit
	r.applyTo(commit)
	r.walCommit(commit)
	for i := prev; i < commit; i++ {
		seq := r.log[i].Seq
		if c := r.clientFor[seq]; c != nil && !r.acked[seq] {
			r.ackSeq(seq, c)
		}
	}
}

func (r *Replica) onPrep(m msg, from *simnet.Conn) {
	if m.View < r.view {
		// A stale leader (healed minority) is pushing an old view's log:
		// correct it with our state instead of acking.
		if r.status == "normal" {
			r.send(from, msg{T: msgState, View: r.view, Log: r.log, Commit: r.commit})
		}
		return
	}
	if m.View > r.view {
		r.askState(m.View, from)
		return
	}
	if r.status != "normal" {
		return
	}
	r.sinceLeader = 0
	if len(m.Log) > len(r.log) {
		for _, e := range m.Log[len(r.log):] {
			r.log = append(r.log, e)
			r.walAppend(e)
		}
	}
	r.advanceCommit(m.Commit)
	r.send(from, msg{T: msgPrepOK, View: r.view, Commit: len(r.log)})
}

func (r *Replica) onPrepOK(m msg) {
	if m.View != r.view || r.status != "normal" || r.leader() != r.id {
		return
	}
	set := r.acks[m.Commit]
	if set == nil {
		set = make(map[int]bool)
		r.acks[m.Commit] = set
	}
	set[m.From] = true
	// +1: the leader's own log counts toward the quorum.
	if len(set)+1 >= r.cfg.quorum() && m.Commit > r.commit {
		r.advanceCommit(m.Commit)
		r.cast(msg{T: msgCommit, View: r.view, Commit: r.commit})
	}
}

func (r *Replica) onCommit(m msg, from *simnet.Conn) {
	if m.View < r.view {
		if r.status == "normal" {
			r.send(from, msg{T: msgState, View: r.view, Log: r.log, Commit: r.commit})
		}
		return
	}
	if m.View > r.view {
		r.askState(m.View, from)
		return
	}
	if r.status != "normal" {
		return
	}
	r.sinceLeader = 0
	r.advanceCommit(m.Commit)
}

// askState reacts to evidence of a higher view: ask the witness for the
// authoritative log rather than guessing.
func (r *Replica) askState(view int, from *simnet.Conn) {
	if r.status != "recovering" {
		r.status = "recovering"
	}
	r.send(from, msg{T: msgGetState, View: r.view})
}

func (r *Replica) onSVC(m msg) {
	if m.View < r.view {
		return
	}
	if m.View > r.view {
		r.startViewChange(m.View)
	}
	if r.status != "viewchange" {
		return
	}
	r.votes[m.From] = true
	if m.Commit > r.bestCommit || (m.Commit == r.bestCommit && len(m.Log) > len(r.bestLog)) {
		r.bestLog = append([]entry(nil), m.Log...)
		r.bestCommit = m.Commit
	}
	if r.leader() == r.id && len(r.votes) >= r.cfg.quorum() {
		// Elected: adopt the best quorum log and announce the view.
		lg, commit, view := r.bestLog, r.bestCommit, r.view
		r.install(view, lg, commit)
		r.cast(msg{T: msgSV, View: view, Log: lg, Commit: commit})
	}
}

func (r *Replica) onState(m msg) {
	if m.View < r.view || (m.View == r.view && r.status == "normal") {
		return
	}
	replay := r.status == "recovering" && r.cfg.ReplayWAL
	suffix := append([]entry(nil), r.log[min(r.commit, len(r.log)):]...)
	r.install(m.View, m.Log, m.Commit)
	if replay {
		// BUG (REP-replay): "recover" the WAL's uncommitted suffix by
		// re-applying it on top of the state transfer. The group already
		// committed those writes via the client's retry — this applies them
		// a second time.
		for _, e := range suffix {
			r.applyOne(e)
			r.tag(TagReplayGhost, e.Key)
		}
	}
}

// install adopts an authoritative (view, log, commit): the store is rebuilt
// from the committed prefix, and any entry this node had applied that the
// new log does not contain is gone — if a client was acked for it, that ack
// is now a lie (the REP-elect manifestation; the hook tags it).
func (r *Replica) install(view int, lg []entry, commit int) {
	if commit < r.commit {
		return
	}
	have := make(map[int]bool, len(lg))
	for _, e := range lg {
		have[e.Seq] = true
	}
	for i := 0; i < r.applied && i < len(r.log); i++ {
		if !have[r.log[i].Seq] {
			r.tag(TagInstallDrop, r.log[i].Key)
		}
	}
	r.view = view
	r.status = "normal"
	r.log = append([]entry(nil), lg...)
	r.commit = commit
	r.store = make(map[string]int)
	r.applied = 0
	r.applyTo(commit)
	r.sinceLeader = 0
	r.vcStuck = 0
	r.acks = make(map[int]map[int]bool)
}

// State is a detector-facing snapshot of one replica.
type State struct {
	View   int
	Status string
	Leader bool
	Commit int
	LogLen int
}

// Snapshot returns the replica's current control state.
func (r *Replica) Snapshot() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return State{
		View:   r.view,
		Status: r.status,
		Leader: r.status == "normal" && r.leader() == r.id,
		Commit: r.commit,
		LogLen: len(r.log),
	}
}

// Counter returns the replica's applied value for key.
func (r *Replica) Counter(key string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store[key]
}
